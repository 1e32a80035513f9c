// The streaming multi-day pipeline (Figure 2, run day after day).
//
// A Pipeline is a long-lived session over one monitored network. It owns
// the detector and reads the caller's history stores (domain activity,
// passive DNS) in place: it keeps pointers to the stores given to its
// constructor or to absorb_history(), never a copy, so each store is
// resident once. The stores must outlive the session, as the public suffix
// list must, and the caller must not change them while train() or
// classify() run; between days the caller may grow them, and the session
// reads them as they stand. No other state carries from one day to the
// next. F2/F3 read the stores per domain inside the feature extraction's
// parallel loop; const lookups into a hash map need no sharding to run in
// parallel.
//
// Records enter through ingest_stream(). A producer thread parses a
// TraceSource (dnstap capture, pcap, SEGTRC1 binlog, sim TSV, or an
// in-memory trace) into one reused record and appends each record to a
// recycled dns::RecordArena, cut at every day change and after every
// IngestOptions::batch_records-th record of the stream. The arenas cross a
// bounded util::IngestQueue, whose push blocks while it is full, to the
// caller thread. There each arena joins its day's graph::StreamingPrepare,
// which scans a batch as soon as the arenas fill one, and the arena goes
// back to the producer. When the next day's first arena arrives (or the source
// ends), only the day's last partial batch and the passes after the scan
// remain; the prepared day is then handed to a callback. No whole day of
// records is ever held in memory, and the spills and graph of the open day
// live in a PrepareDirectory of its own from its first arena to its
// rollover.
//
// Determinism contract: every PreparedDay graph and every classify()
// score is bit-identical to what a from-scratch Segugio::prepare_graph /
// train / classify over the same inputs produces, for every thread count
// (tests/core/pipeline_test.cpp asserts byte equality of the serialized
// graphs and exact score equality at 1 and 8 threads) and every
// batch_records (tests/core/pipeline_stream_test.cpp): the queue never
// drops a record. tests/core/golden_digest_test.cpp pins a streamed
// session's scores and model bytes to constants.
//
// Typical deployment session:
//
//   core::Pipeline pipeline(psl, activity, pdns, config);
//   dns::FileTraceSource tap("resolver.dnstap");
//   pipeline.ingest_stream(tap, blacklist_for_day, whitelist,
//                          [&](PreparedDay&& day) {
//                            auto report = pipeline.classify(day);
//                            ...archive report, maybe re-train...
//                          });
//
// A restart needs only the history stores and the model
// (DomainActivityIndex/PassiveDnsDb::save, Segugio::save): a Pipeline over
// the reloaded stores, held in named objects that outlive it, with
// detector() assigned Segugio::load's result, prepares and scores later
// days exactly like the session that never stopped
// (PipelineTest.RestartedSessionMatchesContinuousSession).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>

#include "core/segugio.h"
#include "dns/trace_source.h"
#include "util/ingest_queue.h"
#include "util/obs/journal.h"

namespace seg::core {

/// One ingested observation day, ready for train() / classify().
struct PreparedDay {
  graph::PreparedGraph graph;       ///< labeled, (filtered,) pruned
  graph::PruneStats prune_stats;    ///< R1-R4 breakdown
  PrepareTimings timings;           ///< per-stage wall clock
  dns::Day day = 0;                 ///< the observation day
};

/// Tuning for ingest_stream()'s producer stage. The queue holds
/// util::kDefaultQueueCapacity arenas. The engine's scan batch is
/// graph::kScanBatchRecords whatever this is.
struct IngestOptions {
  /// Records per arena pushed (0 counts as 1): the producer cuts an arena
  /// after every batch_records-th record of the stream, and at each day
  /// change.
  std::size_t batch_records = 1024;
};

/// What one ingest_stream() call observed.
struct IngestStats {
  std::uint64_t records = 0;       ///< records scanned into days
  std::uint64_t wire_skipped = 0;  ///< filtered wire messages (FileTraceSource)
  std::size_t days = 0;            ///< completed days handed to the callback
  util::IngestQueueStats queue;    ///< final queue counters
};

class Pipeline {
 public:
  /// Serves the ground-truth C&C blacklist for an observation day —
  /// blacklists evolve, so a multi-day stream looks the day's list up as
  /// each day completes. The returned reference must stay valid for the
  /// duration of that day's preparation.
  using BlacklistProvider = std::function<const graph::NameSet&(dns::Day)>;

  /// Receives each completed, prepared day in stream order.
  using DayCallback = std::function<void(PreparedDay&&)>;

  /// Session that reads one shared pair of empty history stores until
  /// absorb_history() names the caller's. `psl` must outlive the pipeline.
  explicit Pipeline(const dns::PublicSuffixList& psl, SegugioConfig config = {});

  /// Session that reads the caller's history stores (e.g. a warmup period
  /// or stores loaded from disk). They are borrowed, not copied: `psl`,
  /// `activity` and `pdns` must outlive the pipeline.
  Pipeline(const dns::PublicSuffixList& psl, const dns::DomainActivityIndex& activity,
           const dns::PassiveDnsDb& pdns, SegugioConfig config = {});
  // A temporary store would die before the session that reads it.
  Pipeline(const dns::PublicSuffixList&, dns::DomainActivityIndex&&, const dns::PassiveDnsDb&,
           SegugioConfig = {}) = delete;
  Pipeline(const dns::PublicSuffixList&, const dns::DomainActivityIndex&, dns::PassiveDnsDb&&,
           SegugioConfig = {}) = delete;

  /// Points the session at the caller's stores, which must outlive it; the
  /// stores it read before are no longer read. Nothing is copied or
  /// merged: calling it again with the same stores changes nothing, and a
  /// store the caller grows between days is read as it stands.
  void absorb_history(const dns::DomainActivityIndex& activity, const dns::PassiveDnsDb& pdns);
  void absorb_history(dns::DomainActivityIndex&&, const dns::PassiveDnsDb&) = delete;
  void absorb_history(const dns::DomainActivityIndex&, dns::PassiveDnsDb&&) = delete;

  /// Consumes `source` to exhaustion: parses records into arenas on a
  /// producer thread, moves them through a bounded queue that blocks the
  /// producer while it is full (see IngestOptions), cuts the stream at day
  /// boundaries (days must be non-decreasing; util::ParseError otherwise),
  /// scans each day's records as they arrive, and hands each completed,
  /// prepared day to `on_day`. A day is complete when the next day's first
  /// record arrives or when the source ends cleanly. Each day's graph,
  /// PruneStats and timings.build.records are those of
  /// Segugio::prepare_graph over that day's records. The history stores
  /// are the caller's (see absorb_history()), keeping feature inputs
  /// identical to the one-shot flow. Exceptions from the producer
  /// (malformed wire data) or from `on_day` propagate to the caller after
  /// the producer thread is joined. A producer failure discards the day
  /// still open at that point: it is never handed to `on_day`, because its
  /// records may be cut short, and its temporary directory is removed, as
  /// on a backward day or an `on_day` that throws. Top-level calls only
  /// (the scan uses the shared pool).
  IngestStats ingest_stream(dns::TraceSource& source, const BlacklistProvider& cc_blacklist,
                            const graph::NameSet& e2ld_whitelist, const DayCallback& on_day,
                            const IngestOptions& options = {});

  /// Trains the detector from the day's known domains (Figure 5 protocol),
  /// with history served by the session's stores.
  void train(const PreparedDay& day);

  /// Scores the day's unknown domains; the report is self-contained (see
  /// DetectionReport).
  DetectionReport classify(const PreparedDay& day) const;

  /// Attaches (or, with nullptr, detaches) a per-day obs journal: one
  /// `segf1 obsjournal 1` JSONL entry per ingested day, written to `out`
  /// at each day rollover. The entry for a day collects that day's
  /// graph/prune counters at preparation time, calibration gauges
  /// when train() runs on it, and the score/feature histograms plus drift
  /// gauges when classify() runs on it; it is appended when the next day
  /// opens (or on flush_journal()/set_journal()). The settings are fixed:
  /// 20 score bins over [0, 1], calibration at FPR 0.01 on every journaled
  /// train() day, the default obs::DriftThresholds, and the first entry
  /// with a score histogram as the drift baseline. `out` must outlive the
  /// journaling session. Attaching a journal never perturbs scores or
  /// serialized artifacts — the same obs contract as spans and metrics.
  void set_journal(std::ostream* out);

  /// Appends the pending day's entry, if any. Idempotent; call at session
  /// end so the last day is not lost.
  void flush_journal();

  bool journal_enabled() const { return journal_writer_ != nullptr; }

  const Segugio& detector() const { return detector_; }
  Segugio& detector() { return detector_; }
  const SegugioConfig& config() const { return detector_.config(); }
  /// The stores the session reads: the caller's, or the shared empty pair.
  const dns::DomainActivityIndex& activity() const { return *activity_; }
  const dns::PassiveDnsDb& pdns() const { return *pdns_; }

 private:
  /// Opens the journal entry for a freshly prepared day (flushing the
  /// previous one — the rollover write).
  void journal_open_day(const PreparedDay& day, std::size_t records);

  /// Folds the day's score/feature histograms and drift gauges into the
  /// pending entry. Const because classify() is; the journal members are
  /// mutable telemetry (like Segugio's timings).
  void journal_annotate_classify(const PreparedDay& day, const DetectionReport& report) const;

  const dns::PublicSuffixList* psl_;
  Segugio detector_;
  const dns::DomainActivityIndex* activity_;
  const dns::PassiveDnsDb* pdns_;

  std::unique_ptr<obs::JournalWriter> journal_writer_;
  mutable std::optional<obs::JournalEntry> journal_pending_;
  mutable std::optional<obs::JournalEntry> journal_baseline_;
};

}  // namespace seg::core
