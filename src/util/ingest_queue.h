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
// Back-pressure: push() on a full queue waits for space. Nothing is ever
// lost, so a replayed stream is deterministic: the consumer sees exactly
// the records of the source, in order. Segugio scores each day from that
// day's complete machine-domain graph, and a queue that shed or sampled
// records would hand it a different graph; blocking is also what makes
// streamed output bit-identical to day-batch output.
//
// A queue constructed with a metrics prefix mirrors its counters into the
// seg::obs registry (see IngestQueue's constructor for the catalog), so a
// deployment can watch `<prefix>_depth` without touching the queue itself.
// A push that waits for space is an "ingest/push-wait" span on the
// producer's thread, and a pop that waits for a batch an "ingest/pop-wait"
// span on the consumer's (util/obs/trace.h); a push or pop that does not
// wait records none.
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
#include "util/obs/trace.h"

namespace seg::util {

/// Cumulative queue counters, readable at any time (values are snapshots;
/// totals are exact once the queue is closed and drained).
struct IngestQueueStats {
  std::uint64_t pushed_batches = 0;   ///< batches accepted into the queue
  std::uint64_t pushed_records = 0;   ///< records inside accepted batches
  std::uint64_t popped_batches = 0;   ///< batches handed to the consumer
  /// Always 0: a full queue blocks, it never drops. Kept for readers that
  /// still report it (segbench's `util.queue.dropped_records`).
  std::uint64_t dropped_records = 0;
  std::uint64_t blocked_pushes = 0;   ///< pushes that had to wait for space
  std::size_t max_depth = 0;          ///< high-water mark of queued batches
  std::size_t depth = 0;              ///< batches queued right now
};

/// Default queue bound, in batches. Decoding outruns graph preparation, so
/// a full queue is the steady state and every queued record is resident
/// memory and report lag. The bound only has to absorb batch-level jitter:
/// at any realistic day size no bound buys overlap across a day's
/// preparation (docs/ingestion.md, "Queue sizing").
inline constexpr std::size_t kDefaultQueueCapacity = 16;

/// Bounded multi-producer single-consumer queue of batches. `Batch` must
/// be movable and expose size() (the record count behind the record
/// counters).
template <typename Batch>
class IngestQueue {
 public:
  /// `capacity` is the most batches queued before push() waits (0 counts
  /// as 1). When `metrics_prefix` is non-empty, the counters are mirrored
  /// into the seg::obs registry as `<prefix>_pushed_batches_total`,
  /// `<prefix>_pushed_records_total`, `<prefix>_blocked_pushes_total` and
  /// the gauges `<prefix>_depth` / `<prefix>_max_depth`; an unnamed queue
  /// never touches the registry.
  explicit IngestQueue(std::size_t capacity = kDefaultQueueCapacity,
                       std::string metrics_prefix = {})
      : capacity_(capacity == 0 ? 1 : capacity), metrics_prefix_(std::move(metrics_prefix)) {}

  IngestQueue(const IngestQueue&) = delete;
  IngestQueue& operator=(const IngestQueue&) = delete;

  /// Enqueues one batch, waiting while the queue is full. Returns false
  /// only when the queue was closed or cancelled first: the batch is then
  /// refused. Safe from any number of producer threads.
  bool push(Batch batch) {
    const std::size_t records = batch.size();
    std::unique_lock<std::mutex> lock(mutex_);
    if (queue_.size() >= capacity_ && !closed_) {
      ++stats_.blocked_pushes;
      bump("_blocked_pushes_total", 1);
      obs::Span wait_span("ingest/push-wait");
      space_.wait(lock, [&] { return queue_.size() < capacity_ || closed_; });
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
    if (queue_.empty() && !closed_) {
      obs::Span wait_span("ingest/pop-wait");
      ready_.wait(lock, [&] { return !queue_.empty() || closed_; });
    }
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

  IngestQueueStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    IngestQueueStats snapshot = stats_;
    snapshot.depth = queue_.size();
    return snapshot;
  }

  std::size_t capacity() const { return capacity_; }

 private:
  void bump(const char* suffix, std::uint64_t delta) {
    if (!metrics_prefix_.empty()) {
      obs::Registry::instance().counter(metrics_prefix_ + suffix).add(delta);
    }
  }
  void set_gauge(const char* suffix, double value) {
    if (!metrics_prefix_.empty()) {
      obs::Registry::instance().gauge(metrics_prefix_ + suffix).set(value);
    }
  }

  const std::size_t capacity_;
  const std::string metrics_prefix_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;  ///< consumer waits: queue non-empty or closed
  std::condition_variable space_;  ///< producers wait: space available or closed
  std::deque<Batch> queue_;
  IngestQueueStats stats_;
  bool closed_ = false;
};

}  // namespace seg::util
