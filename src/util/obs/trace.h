// Span-based tracing for the pipeline (the `seg::obs` runtime).
//
// A Span measures one stage on the calling thread: construction reads the
// monotonic clock, close() (or the destructor) reads it again and — when
// tracing is enabled — appends a SpanRecord to a per-thread buffer owned by
// the process-wide Tracer. Spans nest: each thread keeps a depth counter,
// so records reconstruct the stage hierarchy without any cross-thread
// synchronization, and spans opened inside util::parallel_for workers land
// in the worker's own buffer (no locks on the hot path).
//
// Span::close() returns the elapsed seconds, which is how the pipeline's
// timing structs (core::BuildTimings, core::PrepareTimings, ...) are now
// computed: they are views over span measurements, not a second timing
// mechanism. The clock is read whether or not tracing is enabled, so
// enabling the tracer never changes what the timing structs report — and
// the pipeline's scores never depend on either.
//
// Threading contract: Span construction/close is safe on any thread.
// Tracer::snapshot()/clear()/set_enabled() must be called from the top
// level while no spans are being recorded (between pipeline stages), like
// util::set_parallelism.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace seg::obs {

/// One closed span, in the tracer's buffers. Times are nanoseconds since
/// the process-wide trace epoch (first obs clock use).
struct SpanRecord {
  std::string name;
  std::uint32_t tid = 0;    ///< tracer thread index (dense, first-use order)
  std::uint32_t depth = 0;  ///< nesting depth on its thread when opened
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

/// Nanoseconds since the process-wide trace epoch (monotonic clock).
std::int64_t now_ns();

/// Seconds since the trace epoch; the logger stamps lines with this.
double uptime_seconds();

/// Process-wide span collector. Disabled by default: spans still measure
/// time (close() returns elapsed seconds) but record nothing.
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on);
  bool enabled() const;

  /// All records closed so far, sorted by (tid, start, -dur) so each
  /// thread's lane reads top-down. Top-level calls only.
  std::vector<SpanRecord> snapshot() const;

  /// Drops every record (buffers stay registered). Top-level calls only.
  void clear();

 private:
  Tracer() = default;
};

/// RAII stage timer; see the header comment. Not copyable or movable —
/// a span is an event on the thread that opened it.
class Span {
 public:
  explicit Span(const char* name) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span, records it (when tracing is enabled), and returns the
  /// elapsed seconds. Idempotent; the destructor calls it.
  double close() noexcept;

  /// Elapsed seconds so far without closing.
  double elapsed_seconds() const noexcept;

 private:
  const char* name_;
  std::int64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
  bool open_ = true;
};

/// Chrome trace_event JSON over `records` (load in Perfetto or
/// chrome://tracing). Timestamps are integer microseconds so nesting
/// survives the unit conversion exactly.
void write_chrome_trace(std::ostream& out, const std::vector<SpanRecord>& records);

/// Convenience: write_chrome_trace over Tracer::instance().snapshot().
void write_chrome_trace(std::ostream& out);

/// Checks that `records` are well-formed: non-negative times, and for each
/// thread the spans form a properly nested forest (children inside their
/// parent's interval, LIFO close order). Returns an empty string when OK,
/// else a description of the first violation.
std::string validate_spans(const std::vector<SpanRecord>& records);

#define SEG_OBS_CONCAT_INNER(a, b) a##b
#define SEG_OBS_CONCAT(a, b) SEG_OBS_CONCAT_INNER(a, b)
/// Opens an RAII span for the rest of the enclosing scope.
#define SEG_SPAN(name) ::seg::obs::Span SEG_OBS_CONCAT(seg_span_, __LINE__)(name)

}  // namespace seg::obs
