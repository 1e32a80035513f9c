// Live health surface for streaming ingest sessions.
//
// A HealthSampler is a low-frequency background thread that periodically
// derives operator-facing gauges from telemetry the pipeline already
// publishes (it reads only the obs Registry and the process, never
// pipeline state — so it cannot perturb scores or artifacts):
//
//   seg_health_records_per_sec_ewma  smoothed ingest rate (EWMA, alpha
//                                    0.3) of the ingest queue's
//                                    seg_ingest_queue_pushed_records_total
//   seg_health_queue_depth           mirrored seg_ingest_queue_depth
//   seg_health_day_lag               seg_ingest_current_day minus
//                                    seg_ingest_day_watermark (days parsed
//                                    but not yet prepared)
//   seg_health_rss_now_kb/_rss_peak_kb   resident set via process.h
//   seg_health_uptime_seconds        process uptime
//   seg_health_samples_total         counter of completed samples
//
// The sampler thread routes exceptions through std::current_exception and
// rethrows them from stop() (the R-EXC1 contract); sample_once() is public
// so tests drive sampling deterministically without the thread.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>

namespace seg::obs {

class HealthSampler {
 public:
  /// `interval` is the wall-clock period between the background thread's
  /// samples.
  explicit HealthSampler(std::chrono::milliseconds interval = std::chrono::milliseconds(1000));
  ~HealthSampler();  // stops the thread; a pending sampler exception is dropped

  HealthSampler(const HealthSampler&) = delete;
  HealthSampler& operator=(const HealthSampler&) = delete;

  /// Launches the background thread (PreconditionError when already
  /// running).
  void start();

  /// Stops and joins the thread, then rethrows any exception the sampler
  /// body raised. Idempotent: stopping a stopped sampler is a no-op.
  void stop();

  bool running() const;

  /// Takes one sample on the calling thread. Used by the background loop
  /// and directly by tests/benches that want deterministic sampling.
  void sample_once();

 private:
  void run_loop();

  const std::chrono::milliseconds interval_;
  std::thread thread_;
  mutable std::mutex mutex_;       ///< guards stop_requested_/error_
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::exception_ptr error_;

  std::mutex sample_mutex_;        ///< guards the EWMA state below
  bool has_last_ = false;
  std::int64_t last_ns_ = 0;
  std::uint64_t last_records_ = 0;
  double ewma_rate_ = 0.0;
};

}  // namespace seg::obs
