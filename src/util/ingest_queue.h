// Bounded MPSC ingest queue: the hand-off between wire-format producers
// and the pipeline consumer.
//
// Continuous ingestion decouples parsing (dnstap/pcap/binlog readers, one
// or more producer threads) from graph preparation (the pipeline's caller
// thread) through a bounded queue of record *batches* — micro-batching
// amortizes the lock to one acquisition per 1024 records, so the queue
// stays far below the millions of records per second the wire readers
// decode (docs/ingestion.md).
//
// Back-pressure is a policy choice made at construction time:
//
//   kBlock        push() waits for space. Nothing is ever lost, so a
//                 replayed stream is deterministic: the consumer sees
//                 exactly the bytes of the source, in order. This is the
//                 only policy under which streamed output is bit-identical
//                 to day-batch output (and the default everywhere).
//   kCountAndDrop push() on a full queue drops the batch and counts it.
//                 For live capture where freshness beats completeness; the
//                 drop counter is the operator's signal to add capacity.
//                 With `sampled_admission` on, sustained drops additionally
//                 engage probabilistic per-record admission: an EWMA of
//                 push outcomes drives an admit probability (mirrored as
//                 the `<prefix>_drop_rate` / `<prefix>_admit_permille`
//                 gauges), and incoming batches are thinned record-by-
//                 record with a deterministic LCG before enqueueing, so
//                 overload sheds a *uniform sample* of the stream instead
//                 of whole contiguous batches. Whole-batch drop remains
//                 the last resort when the queue is full. The ledger stays
//                 exact: offered records ==
//                 pushed_records + dropped_records + sampled_out_records.
//
// Both policies are observable through seg::obs: construction registers
// counters/gauges under `metrics_prefix` (see stats() for the catalog), so
// a deployment can alert on `<prefix>_dropped_batches_total` without
// touching the queue itself.
//
// Shutdown/drain protocol:
//
//   producer:  while (more) queue.push(batch);   queue.close();
//   consumer:  while (auto b = queue.pop()) consume(*b);   // drains, then
//              // pop() returns nullopt once closed AND empty
//
// cancel() aborts from the consumer side: pending batches are discarded
// and every blocked or future push() returns false immediately, so a dying
// consumer never strands a blocked producer.
//
// Ordering guarantee: batches from one producer are popped in push order
// (FIFO). With a single producer the consumed sequence is exactly the
// produced sequence — the property the determinism tests lean on.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "util/obs/metrics.h"

namespace seg::util {

/// What a full queue does to push(); see the header comment.
enum class BackpressurePolicy {
  kBlock,
  kCountAndDrop,
};

/// Cumulative queue counters, readable at any time (values are snapshots;
/// totals are exact once the queue is closed and drained).
struct IngestQueueStats {
  std::uint64_t pushed_batches = 0;   ///< batches accepted into the queue
  std::uint64_t pushed_records = 0;   ///< records inside accepted batches
  std::uint64_t popped_batches = 0;   ///< batches handed to the consumer
  std::uint64_t dropped_batches = 0;  ///< rejected under kCountAndDrop
  std::uint64_t dropped_records = 0;  ///< records inside rejected batches
  std::uint64_t sampled_out_records = 0;  ///< thinned by sampled admission
  std::uint64_t blocked_pushes = 0;   ///< pushes that had to wait (kBlock)
  std::size_t max_depth = 0;          ///< high-water mark of queued batches
  std::size_t depth = 0;              ///< batches queued right now
};

/// Default queue bound, in batches. Decoding outruns graph preparation, so
/// under kBlock a full queue is the steady state and every queued record is
/// resident memory and report lag. The bound only has to absorb batch-level
/// jitter: at any realistic day size no bound buys overlap across a day's
/// preparation (docs/ingestion.md, "Queue sizing").
inline constexpr std::size_t kDefaultQueueCapacity = 16;

struct IngestQueueOptions {
  std::size_t capacity = kDefaultQueueCapacity;  ///< max queued batches before back-pressure
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  /// When non-empty, queue counters are mirrored into the seg::obs
  /// registry as `<prefix>_{pushed,dropped}_batches_total`,
  /// `<prefix>_{pushed,dropped}_records_total`,
  /// `<prefix>_sampled_out_records_total`,
  /// `<prefix>_blocked_pushes_total`, and gauges `<prefix>_depth` /
  /// `<prefix>_max_depth` / `<prefix>_drop_rate` /
  /// `<prefix>_admit_permille`.
  std::string metrics_prefix;
  /// kCountAndDrop only: thin incoming batches per-record once drops are
  /// observed, instead of shedding only whole batches (see the header
  /// comment). Requires Batch to support begin()/end()/erase(); silently
  /// ignored otherwise.
  bool sampled_admission = false;
  /// EWMA smoothing for the per-push drop-rate estimate behind sampled
  /// admission (1 = react to the last push only).
  double drop_rate_alpha = 0.2;
  /// Floor of the admit probability, in permille: even under total
  /// overload at least this fraction of records is kept, so the consumer
  /// always sees a trickle of fresh data.
  std::uint32_t min_admit_permille = 100;
};

/// Bounded multi-producer single-consumer queue of batches. `Batch` must
/// be movable and expose size() (the record count used by the drop/push
/// record counters).
template <typename Batch>
class IngestQueue {
 public:
  explicit IngestQueue(IngestQueueOptions options = {}) : options_(std::move(options)) {
    if (options_.capacity == 0) {
      options_.capacity = 1;
    }
  }

  IngestQueue(const IngestQueue&) = delete;
  IngestQueue& operator=(const IngestQueue&) = delete;

  /// Enqueues one batch. Returns true when the batch was accepted; false
  /// when it was dropped (kCountAndDrop on a full queue) or the queue was
  /// closed/cancelled. Safe from any number of producer threads.
  bool push(Batch batch) {
    std::size_t records = batch.size();
    std::unique_lock<std::mutex> lock(mutex_);
    if (options_.policy == BackpressurePolicy::kBlock) {
      if (queue_.size() >= options_.capacity && !closed_) {
        ++stats_.blocked_pushes;
        bump("_blocked_pushes_total", 1);
        space_.wait(lock,
                    [&] { return queue_.size() < options_.capacity || closed_; });
      }
    } else if (queue_.size() >= options_.capacity && !closed_) {
      // Whole-batch drop: the last resort even under sampled admission.
      note_push_outcome(true);
      ++stats_.dropped_batches;
      stats_.dropped_records += records;
      bump("_dropped_batches_total", 1);
      bump("_dropped_records_total", records);
      return false;
    } else if (!closed_) {
      note_push_outcome(false);
      if (options_.sampled_admission && admit_permille_ < 1000 && records > 0) {
        thin_batch(batch);
        const std::size_t removed = records - batch.size();
        if (removed > 0) {
          stats_.sampled_out_records += removed;
          bump("_sampled_out_records_total", removed);
        }
        records = batch.size();
        if (records == 0) {
          return true;  // fully sampled out, but nothing was *dropped*
        }
      }
    }
    if (closed_) {
      return false;  // close()/cancel() won the race; the batch is refused
    }
    queue_.push_back(std::move(batch));
    ++stats_.pushed_batches;
    stats_.pushed_records += records;
    stats_.max_depth = queue_.size() > stats_.max_depth ? queue_.size() : stats_.max_depth;
    bump("_pushed_batches_total", 1);
    bump("_pushed_records_total", records);
    set_gauge("_depth", static_cast<double>(queue_.size()));
    set_gauge("_max_depth", static_cast<double>(stats_.max_depth));
    lock.unlock();
    ready_.notify_one();
    return true;
  }

  /// Dequeues the next batch, blocking while the queue is empty and still
  /// open. Returns nullopt once the queue is closed and fully drained
  /// (the consumer's signal to stop). Single consumer thread only.
  std::optional<Batch> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [&] { return !queue_.empty() || closed_; });
    if (queue_.empty()) {
      return std::nullopt;
    }
    Batch batch = std::move(queue_.front());
    queue_.pop_front();
    ++stats_.popped_batches;
    set_gauge("_depth", static_cast<double>(queue_.size()));
    lock.unlock();
    space_.notify_all();
    return batch;
  }

  /// Producer-side end-of-stream: already-queued batches remain poppable;
  /// further pushes are refused; pop() returns nullopt once drained.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
    space_.notify_all();
  }

  /// Consumer-side abort: close() plus discarding everything still queued,
  /// so blocked producers wake immediately and nothing waits on a consumer
  /// that is going away.
  void cancel() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
      queue_.clear();
      set_gauge("_depth", 0.0);
    }
    ready_.notify_all();
    space_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  IngestQueueStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    IngestQueueStats snapshot = stats_;
    snapshot.depth = queue_.size();
    return snapshot;
  }

  const IngestQueueOptions& options() const { return options_; }

 private:
  // Metrics are mirrored only for named queues; an unnamed queue (tests,
  // short-lived adapters) never touches the registry.
  void bump(const char* suffix, std::uint64_t delta) {
    if (!options_.metrics_prefix.empty()) {
      obs::Registry::instance().counter(options_.metrics_prefix + suffix).add(delta);
    }
  }
  void set_gauge(const char* suffix, double value) {
    if (!options_.metrics_prefix.empty()) {
      obs::Registry::instance().gauge(options_.metrics_prefix + suffix).set(value);
    }
  }

  // Folds one push outcome (dropped or admitted) into the drop-rate EWMA
  // and recomputes the admit probability. Called with mutex_ held, on the
  // kCountAndDrop path only.
  void note_push_outcome(bool dropped) {
    drop_rate_ = options_.drop_rate_alpha * (dropped ? 1.0 : 0.0) +
                 (1.0 - options_.drop_rate_alpha) * drop_rate_;
    double admit = 1000.0 * (1.0 - drop_rate_);
    if (admit < static_cast<double>(options_.min_admit_permille)) {
      admit = static_cast<double>(options_.min_admit_permille);
    }
    admit_permille_ = static_cast<std::uint32_t>(admit);
    set_gauge("_drop_rate", drop_rate_);
    set_gauge("_admit_permille", static_cast<double>(admit_permille_));
  }

  // Keeps each record independently with probability admit_permille_/1000,
  // driven by a fixed-seed LCG so a given (push sequence, drop pattern)
  // thins reproducibly. Compiled out for batch types without erase().
  void thin_batch(Batch& batch) {
    if constexpr (requires(Batch& b) { b.erase(b.begin()); }) {
      for (auto it = batch.begin(); it != batch.end();) {
        sample_state_ = sample_state_ * 6364136223846793005ull + 1442695040888963407ull;
        if ((sample_state_ >> 33) % 1000 < admit_permille_) {
          ++it;
        } else {
          it = batch.erase(it);
        }
      }
    }
  }

  IngestQueueOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;  ///< consumer waits: queue non-empty or closed
  std::condition_variable space_;  ///< producers wait: space available or closed
  std::deque<Batch> queue_;
  IngestQueueStats stats_;
  bool closed_ = false;
  double drop_rate_ = 0.0;               ///< EWMA of push outcomes (1 = dropped)
  std::uint32_t admit_permille_ = 1000;  ///< derived admit probability
  std::uint64_t sample_state_ = 0x9e3779b97f4a7c15ull;  ///< LCG state
};

}  // namespace seg::util
