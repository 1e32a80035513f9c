// The streaming multi-day pipeline (Figure 2, run day after day).
//
// A Pipeline is a long-lived session over one monitored network. It owns
// the history stores (domain activity, passive DNS) and a carried name
// dictionary, so consecutive days share work: name validation,
// normalization and e2LD facts computed on day t are reused on day t+1
// (only genuinely new names pay the full cost). F2/F3 read the stores per
// domain inside the feature extraction's parallel loop; const lookups into
// a hash map need no sharding to run in parallel.
//
// Records enter through ingest_stream(): a TraceSource (dnstap capture,
// pcap, SEGTRC1 binlog, sim TSV, or an in-memory trace) is parsed on a
// producer thread, micro-batched through a bounded back-pressured
// util::IngestQueue, assembled into observation days on the caller
// thread, and each completed day is prepared and handed to a callback.
//
// Determinism contract: every PreparedDay graph and every classify()
// score is bit-identical to what a from-scratch Segugio::prepare_graph /
// train / classify over the same inputs produces, for every thread count
// (tests/core/pipeline_test.cpp asserts byte equality of the serialized
// graphs and exact score equality at 1 and 8 threads), under the blocking
// back-pressure policy, the only policy that never drops records
// (tests/core/pipeline_stream_test.cpp). tests/core/golden_digest_test.cpp
// pins a streamed session's scores and model bytes to constants.
//
// Typical deployment session:
//
//   core::Pipeline pipeline(psl, config);
//   pipeline.absorb_history(warmup_activity, warmup_pdns);
//   dns::FileTraceSource tap("resolver.dnstap");
//   pipeline.ingest_stream(tap, blacklist_for_day, whitelist,
//                          [&](PreparedDay&& day) {
//                            auto report = pipeline.classify(day);
//                            ...archive report, maybe re-train...
//                          });
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "core/segugio.h"
#include "dns/trace_source.h"
#include "graph/name_cache.h"
#include "util/ingest_queue.h"
#include "util/obs/drift.h"
#include "util/obs/journal.h"

namespace seg::core {

/// One ingested observation day, ready for train() / classify().
struct PreparedDay {
  graph::MachineDomainGraph graph;  ///< labeled, (filtered,) pruned
  graph::PruneStats prune_stats;    ///< R1-R4 breakdown
  PrepareTimings timings;           ///< per-stage wall clock
  graph::CarryStats carry;          ///< name-dictionary reuse for this day
  dns::Day day = 0;                 ///< the observation day
};

/// Cumulative counters over every day the session ingested:
/// ingest_seconds[i] is the close of the i-th "pipeline/ingest_day" span.
struct StreamingStats {
  std::size_t days_ingested = 0;
  std::vector<double> ingest_seconds;  ///< wall clock per ingested day
  std::vector<double> reuse_ratios;    ///< name-dictionary reuse per day
  std::size_t cached_names = 0;        ///< dictionary size after last day
};

/// Tuning for ingest_stream()'s producer/queue stage.
struct IngestOptions {
  std::size_t batch_records = 1024;  ///< records per micro-batch pushed
  /// Max queued batches (back-pressure); see util::kDefaultQueueCapacity.
  std::size_t queue_capacity = util::kDefaultQueueCapacity;
  util::BackpressurePolicy policy = util::BackpressurePolicy::kBlock;
  /// kCountAndDrop only: shed overload as a uniform per-record sample
  /// instead of whole contiguous batches (see util::IngestQueueOptions).
  /// Irrelevant under the default kBlock policy, which never drops.
  bool sampled_admission = true;
};

/// Tuning for the per-day obs journal (Pipeline::set_journal()). All of it
/// is telemetry configuration: none of these fields can change a score.
struct JournalOptions {
  /// Alert trip points for the drift gauges.
  obs::DriftThresholds drift;
  /// FP budget for the calibration gauges journaled on train() days.
  double calibration_max_fpr = 0.01;
  /// Journal threshold calibration on train() days (costs one hidden-label
  /// scoring pass over the day's known domains).
  bool calibrate = true;
  /// Include wall-clock/RSS extras in a "runtime" sub-object. Off by
  /// default: without it a journal is byte-identical across thread counts
  /// and machines for the same inputs.
  bool include_runtime = false;
  /// Score-histogram resolution over [0, 1].
  std::size_t score_bins = 20;
  /// Drift baseline day; -1 pins the first day that was classified.
  std::int64_t baseline_day = -1;
};

/// What one ingest_stream() call observed.
struct IngestStats {
  std::uint64_t records = 0;       ///< records assembled into days
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

  /// Fresh session with empty history stores. `psl` must outlive the
  /// pipeline.
  explicit Pipeline(const dns::PublicSuffixList& psl, SegugioConfig config = {});

  /// Session seeded from existing history (e.g. a warmup period or stores
  /// loaded from disk); the stores are copied in.
  Pipeline(const dns::PublicSuffixList& psl, const dns::DomainActivityIndex& activity,
           const dns::PassiveDnsDb& pdns, SegugioConfig config = {});

  /// Folds history into the session's stores (DomainActivityIndex::absorb,
  /// PassiveDnsDb::absorb). Idempotent: absorbing the same snapshot twice
  /// changes nothing, so callers may re-absorb a growing store after each
  /// day.
  void absorb_history(const dns::DomainActivityIndex& activity, const dns::PassiveDnsDb& pdns);

  /// Consumes `source` to exhaustion: parses records on a producer thread,
  /// moves them through a bounded back-pressured queue (see IngestOptions),
  /// cuts the stream at day boundaries (days must be non-decreasing;
  /// util::ParseError otherwise), builds, labels, (optionally)
  /// prober-filters and prunes each completed day, and hands it to
  /// `on_day`. Under the default kBlock policy each day's graph is
  /// bit-identical to Segugio::prepare_graph over that day's records;
  /// kCountAndDrop trades completeness for liveness and reports drops in
  /// the returned stats. History stores are fed separately through
  /// absorb_history(), keeping feature inputs identical to the one-shot
  /// flow. Exceptions from the producer (malformed wire data) or from
  /// `on_day` propagate to the caller after the producer thread is joined.
  /// Top-level calls only (the build uses the shared pool).
  IngestStats ingest_stream(dns::TraceSource& source, const BlacklistProvider& cc_blacklist,
                            const graph::NameSet& e2ld_whitelist, const DayCallback& on_day,
                            const IngestOptions& options = {});

  /// Trains the detector from the day's known domains (Figure 5 protocol),
  /// with history served by the session's stores.
  void train(const PreparedDay& day);

  /// Scores the day's unknown domains; the report is self-contained (see
  /// DetectionReport).
  DetectionReport classify(const PreparedDay& day) const;

  /// Persists the session state that is NOT reconstructible from the
  /// history stores: the carried name dictionary (`segf1 pipeline-session`
  /// stream embedding a `segf1 namecache` payload). The activity/pdns
  /// history keeps using the stores' own save/load plus
  /// absorb_history(), so a restart is:
  ///
  ///   save:  activity.save(a); pdns.save(p); pipeline.save_session(s);
  ///   load:  Pipeline fresh(psl, config);
  ///          fresh.absorb_history(load(a), load(p));
  ///          fresh.load_session(s);
  ///
  /// after which ingest_stream() produces bit-identical graphs and reuse
  /// ratios carry over instead of resetting to zero.
  void save_session(std::ostream& out) const;

  /// Restores a save_session() stream into this session, replacing the
  /// carried dictionary. Throws util::ParseError on malformed or headerless
  /// input (there is no legacy session format).
  void load_session(std::istream& in);

  /// Attaches (or, with nullptr, detaches) a per-day obs journal: one
  /// `segf1 obsjournal 1` JSONL entry per ingested day, written to `out`
  /// at each day rollover. The entry for a day collects that day's
  /// graph/prune/carry counters at preparation time, calibration gauges
  /// when train() runs on it, and the score/feature histograms plus drift
  /// gauges when classify() runs on it; it is appended when the next day
  /// opens (or on flush_journal()/set_journal()). `out` must outlive the
  /// journaling session. Attaching a journal never perturbs scores or
  /// serialized artifacts — the same obs contract as spans and metrics.
  void set_journal(std::ostream* out, JournalOptions options = {});

  /// Appends the pending day's entry, if any. Idempotent; call at session
  /// end so the last day is not lost.
  void flush_journal();

  bool journal_enabled() const { return journal_writer_ != nullptr; }

  /// The pinned drift baseline entry (first classified day, or
  /// JournalOptions::baseline_day); nullptr until one is captured.
  const obs::JournalEntry* journal_baseline() const {
    return journal_baseline_ ? &*journal_baseline_ : nullptr;
  }

  const Segugio& detector() const { return detector_; }
  Segugio& detector() { return detector_; }
  const SegugioConfig& config() const { return detector_.config(); }
  const dns::DomainActivityIndex& activity() const { return activity_; }
  const dns::PassiveDnsDb& pdns() const { return pdns_; }
  const StreamingStats& streaming_stats() const { return stats_; }

 private:
  /// The per-day preparation behind ingest_stream() (and the single source
  /// of StreamingStats::ingest_seconds timings).
  PreparedDay prepare_one_day(const dns::DayTrace& trace, const graph::NameSet& cc_blacklist,
                              const graph::NameSet& e2ld_whitelist);

  /// Opens the journal entry for a freshly prepared day (flushing the
  /// previous one — the rollover write).
  void journal_open_day(const PreparedDay& day, std::size_t records, double ingest_seconds);

  /// Folds the day's score/feature histograms and drift gauges into the
  /// pending entry. Const because classify() is; the journal members are
  /// mutable telemetry (like Segugio's timings).
  void journal_annotate_classify(const PreparedDay& day, const DetectionReport& report) const;

  const dns::PublicSuffixList* psl_;
  Segugio detector_;
  graph::NameCache cache_;
  dns::DomainActivityIndex activity_;
  dns::PassiveDnsDb pdns_;
  StreamingStats stats_;

  JournalOptions journal_options_;
  std::unique_ptr<obs::JournalWriter> journal_writer_;
  mutable std::optional<obs::JournalEntry> journal_pending_;
  mutable std::optional<obs::JournalEntry> journal_baseline_;
};

}  // namespace seg::core
