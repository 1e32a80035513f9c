// Append-only per-day observability journal (`segf1 obsjournal 1`).
//
// A journal is the longitudinal artifact of seg::obs: one JSONL line per
// observation day, written by core::Pipeline at each day rollover, holding
// the day's deterministic run snapshot — record/graph/prune counters,
// the score histogram, per-feature summary histograms, calibration gauges,
// drift gauges and any tripped alerts. Entries are fully deterministic by
// default (byte-identical across thread counts for the same inputs);
// wall-clock/RSS/queue extras live in an opt-in "runtime" sub-object that
// identity tests leave disabled. See docs/FORMATS.md ("obsjournal") for
// the byte-level spec and docs/observability.md for the field catalog.
//
// Like every seg::obs surface, the journal is telemetry only: nothing in
// the pipeline reads it back, so enabling it cannot perturb scores or
// serialized artifacts (tests/core/pipeline_test.cpp asserts this).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace seg::obs {

inline constexpr std::string_view kObsJournalMagic = "obsjournal";
inline constexpr int kObsJournalVersion = 1;

/// Fixed-bucket summary histogram carried in a journal entry. Unlike the
/// thread-sharded HistogramMetric this is a plain serial accumulator —
/// entries are built on one thread in a deterministic order, so mean/min/
/// max are bit-stable.
struct JournalHistogram {
  std::vector<double> bounds;          ///< ascending upper bounds; last bucket is +Inf
  std::vector<std::uint64_t> buckets;  ///< size bounds.size() + 1
  std::uint64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;

  /// Starts an empty histogram over `bounds` (buckets sized to match).
  static JournalHistogram with_bounds(std::vector<double> bounds);

  /// Counts `value` into the first bucket whose upper bound is >= value
  /// (same convention as HistogramMetric) and folds it into mean/min/max.
  void observe(double value);
};

/// One tripped drift/health threshold, recorded as a structured event.
struct JournalAlert {
  std::string gauge;       ///< registry-style gauge name, e.g. "seg_drift_score_psi"
  double value = 0.0;      ///< observed value that tripped
  double threshold = 0.0;  ///< configured trip threshold
};

/// One journal line: everything seg::obs knows about one observation day.
/// Sections keep insertion order so serialization is reproducible.
struct JournalEntry {
  std::int64_t day = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, JournalHistogram>> histograms;
  std::vector<JournalAlert> alerts;
  /// Non-deterministic extras (wall clock, RSS, queue depth...). Opt-in:
  /// populated only when the producer was asked for runtime detail, and
  /// excluded from byte-identity expectations.
  std::vector<std::pair<std::string, double>> runtime;

  void add_counter(std::string name, std::uint64_t value);
  void add_gauge(std::string name, double value);
  void add_histogram(std::string name, JournalHistogram histogram);
  void add_runtime(std::string name, double value);

  /// Lookup helpers; nullptr when the name is absent.
  const std::uint64_t* find_counter(std::string_view name) const;
  const double* find_gauge(std::string_view name) const;
  const JournalHistogram* find_histogram(std::string_view name) const;
};

/// Serializes one entry as a single JSON line (no trailing newline handled
/// here; JournalWriter adds it). Key order is fixed; doubles use precision
/// 17 so the bytes are reproducible for identical values.
void write_journal_entry(std::ostream& out, const JournalEntry& entry);

/// Streams a journal: writes the `segf1 obsjournal 1` header line on
/// construction, then one JSON line per append(). Days must be strictly
/// increasing (PreconditionError otherwise) — the journal is append-only
/// and per-day.
class JournalWriter {
 public:
  explicit JournalWriter(std::ostream& out);

  void append(const JournalEntry& entry);

  std::size_t entries_written() const { return entries_; }

 private:
  std::ostream* out_;
  std::size_t entries_ = 0;
  std::int64_t last_day_ = 0;
};

/// The journal_lite reader: parses a full journal stream back into
/// entries using the dependency-free obs::json parser. Throws
/// util::ParseError on a bad header or malformed line. Tolerates unknown
/// keys (forward compatibility within version 1).
std::vector<JournalEntry> read_journal(std::istream& in);

/// Validates journal text (`segugio validate-obs --journal`): header line,
/// per-line JSON shape, required fields, histogram bucket/count
/// consistency, finite numbers, and strictly increasing days. Returns ""
/// when valid, else a message naming the first offending line.
std::string validate_obs_journal(std::string_view text);

}  // namespace seg::obs
