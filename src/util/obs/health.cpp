#include "util/obs/health.h"

#include <utility>

#include "util/obs/metrics.h"
#include "util/obs/process.h"
#include "util/obs/trace.h"
#include "util/require.h"

namespace seg::obs {

namespace {

constexpr double kEwmaAlpha = 0.3;  // records/s smoothing (1 = instantaneous)

}  // namespace

HealthSampler::HealthSampler(std::chrono::milliseconds interval) : interval_(interval) {}

HealthSampler::~HealthSampler() {
  try {
    stop();
  } catch (...) {
    // A sampler failure discovered only at destruction has nowhere to go;
    // callers that care call stop() themselves and get the rethrow.
  }
}

void HealthSampler::start() {
  util::require(!thread_.joinable(), "HealthSampler::start: already running");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_requested_ = false;
    error_ = nullptr;
  }
  thread_ = std::thread([this] {
    try {
      run_loop();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      error_ = std::current_exception();
    }
  });
}

void HealthSampler::stop() {
  if (thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_requested_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  std::exception_ptr pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending = std::exchange(error_, nullptr);
  }
  if (pending) {
    std::rethrow_exception(pending);
  }
}

bool HealthSampler::running() const { return thread_.joinable(); }

void HealthSampler::run_loop() {
  // The first sample is unconditional: start() guarantees at least one
  // completed sample even when stop() wins the race to set the flag
  // before this thread gets scheduled.
  std::unique_lock<std::mutex> lock(mutex_);
  do {
    lock.unlock();
    sample_once();
    lock.lock();
    cv_.wait_for(lock, interval_, [&] { return stop_requested_; });
  } while (!stop_requested_);
}

void HealthSampler::sample_once() {
  Registry& registry = Registry::instance();
  const std::int64_t now = now_ns();
  const std::uint64_t records = registry.counter("seg_ingest_queue_pushed_records_total").value();

  double rate = 0.0;
  {
    std::lock_guard<std::mutex> lock(sample_mutex_);
    if (has_last_ && now > last_ns_) {
      const double dt = static_cast<double>(now - last_ns_) * 1e-9;
      const double instantaneous =
          static_cast<double>(records - last_records_) / dt;
      ewma_rate_ = kEwmaAlpha * instantaneous + (1.0 - kEwmaAlpha) * ewma_rate_;
    }
    last_ns_ = now;
    last_records_ = records;
    has_last_ = true;
    rate = ewma_rate_;
  }

  registry.gauge("seg_health_records_per_sec_ewma").set(rate);
  registry.gauge("seg_health_queue_depth").set(registry.gauge("seg_ingest_queue_depth").value());

  const double current_day = registry.gauge("seg_ingest_current_day").value();
  const double watermark = registry.gauge("seg_ingest_day_watermark").value();
  const double lag = current_day > watermark ? current_day - watermark : 0.0;
  registry.gauge("seg_health_day_lag").set(lag);

  const ProcessSample process = sample_process();
  registry.gauge("seg_health_rss_now_kb").set(static_cast<double>(process.rss_now_kb));
  registry.gauge("seg_health_rss_peak_kb").set(static_cast<double>(process.rss_peak_kb));
  registry.gauge("seg_health_uptime_seconds").set(uptime_seconds());
  registry.counter("seg_health_samples_total").add(1);
}

}  // namespace seg::obs
