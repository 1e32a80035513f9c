#include "util/obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <ostream>

#include "util/obs/json_lite.h"

namespace seg::obs {

namespace {

std::chrono::steady_clock::time_point trace_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

// Per-thread record buffer. Owned by the tracer (a deque, so growing never
// moves existing buffers); each buffer is written only by its thread.
// snapshot()/clear() run at quiesce points per the Tracer contract.
struct ThreadBuf {
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;
  std::vector<SpanRecord> records;
};

struct TracerState {
  std::atomic<bool> enabled{false};
  mutable std::mutex mutex;  // guards buffer registration and snapshot/clear
  std::deque<ThreadBuf> buffers;
};

TracerState& state() {
  static TracerState instance;
  return instance;
}

ThreadBuf& local_buf() {
  thread_local ThreadBuf* buf = [] {
    auto& s = state();
    std::lock_guard lock(s.mutex);
    s.buffers.emplace_back();
    s.buffers.back().tid = static_cast<std::uint32_t>(s.buffers.size() - 1);
    return &s.buffers.back();
  }();
  return *buf;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - trace_epoch())
      .count();
}

double uptime_seconds() { return static_cast<double>(now_ns()) * 1e-9; }

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_enabled(bool on) { state().enabled.store(on, std::memory_order_relaxed); }

bool Tracer::enabled() const { return state().enabled.load(std::memory_order_relaxed); }

std::vector<SpanRecord> Tracer::snapshot() const {
  auto& s = state();
  std::lock_guard lock(s.mutex);
  std::vector<SpanRecord> all;
  for (const auto& buf : s.buffers) {
    all.insert(all.end(), buf.records.begin(), buf.records.end());
  }
  std::sort(all.begin(), all.end(), [](const SpanRecord& a, const SpanRecord& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.dur_ns > b.dur_ns;  // parents (longer) before children at a tie
  });
  return all;
}

void Tracer::clear() {
  auto& s = state();
  std::lock_guard lock(s.mutex);
  for (auto& buf : s.buffers) {
    buf.records.clear();
  }
}

Span::Span(const char* name) noexcept : name_(name) {
  auto& buf = local_buf();
  depth_ = buf.depth++;
  start_ns_ = now_ns();  // last: exclude buffer setup from the measurement
}

Span::~Span() { close(); }

double Span::close() noexcept {
  if (!open_) {
    return 0.0;
  }
  open_ = false;
  const std::int64_t end_ns = now_ns();
  auto& buf = local_buf();
  buf.depth = depth_;  // unwind even if an exception skipped inner closes
  if (state().enabled.load(std::memory_order_relaxed)) {
    SpanRecord record;
    record.name = name_;
    record.tid = buf.tid;
    record.depth = depth_;
    record.start_ns = start_ns_;
    record.dur_ns = end_ns - start_ns_;
    buf.records.push_back(std::move(record));
  }
  return static_cast<double>(end_ns - start_ns_) * 1e-9;
}

double Span::elapsed_seconds() const noexcept {
  return static_cast<double>(now_ns() - start_ns_) * 1e-9;
}

void write_chrome_trace(std::ostream& out, const std::vector<SpanRecord>& records) {
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const auto& record : records) {
    if (!first) {
      out << ",";
    }
    first = false;
    // Integer microseconds: floor() is monotone, so parent/child interval
    // containment survives the ns -> us conversion exactly.
    const std::int64_t ts_us = record.start_ns / 1000;
    const std::int64_t end_us = (record.start_ns + record.dur_ns) / 1000;
    out << "\n  {\"name\": \"";
    json::write_escaped(out, record.name);
    out << "\", \"cat\": \"seg\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << record.tid
        << ", \"ts\": " << ts_us << ", \"dur\": " << (end_us - ts_us) << "}";
  }
  out << "\n]}\n";
}

void write_chrome_trace(std::ostream& out) {
  write_chrome_trace(out, Tracer::instance().snapshot());
}

std::string validate_spans(const std::vector<SpanRecord>& records) {
  std::vector<SpanRecord> sorted = records;
  std::sort(sorted.begin(), sorted.end(), [](const SpanRecord& a, const SpanRecord& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.dur_ns > b.dur_ns;
  });
  std::vector<std::int64_t> stack;  // open parent end times for current tid
  std::uint32_t tid = 0;
  for (const auto& record : sorted) {
    if (record.start_ns < 0 || record.dur_ns < 0) {
      return "span '" + record.name + "' has a negative timestamp or duration";
    }
    if (record.tid != tid) {
      stack.clear();
      tid = record.tid;
    }
    const std::int64_t end = record.start_ns + record.dur_ns;
    // A span whose end is at or before this start is disjoint, not a parent.
    while (!stack.empty() && stack.back() <= record.start_ns) {
      stack.pop_back();
    }
    if (!stack.empty() && end > stack.back()) {
      return "span '" + record.name + "' overlaps its enclosing span without nesting";
    }
    stack.push_back(end);
  }
  return {};
}

}  // namespace seg::obs
