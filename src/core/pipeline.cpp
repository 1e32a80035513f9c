#include "core/pipeline.h"

#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/calibration.h"
#include "dns/record_arena.h"
#include "features/extractor.h"
#include "features/feature_config.h"
#include "util/obs/drift.h"
#include "util/obs/metrics.h"
#include "util/obs/trace.h"

namespace seg::core {

namespace {

// The stores a session reads until absorb_history() names the caller's.
const dns::DomainActivityIndex kNoActivity;
const dns::PassiveDnsDb kNoPdns;

// The journal's fixed settings (see Pipeline::set_journal).
constexpr std::size_t kJournalScoreBins = 20;
constexpr double kJournalCalibrationMaxFpr = 0.01;

/// Arenas the consumer has scanned, for the producer to refill. The
/// producer takes a new arena only when none is free, so a session holds
/// at most the queue's arenas and the two in hand, and once they have
/// grown to fit the stream, filling one allocates nothing.
class ArenaPool {
 public:
  dns::RecordArena take() {
    std::lock_guard lock(mutex_);
    if (free_.empty()) {
      return {};
    }
    dns::RecordArena arena = std::move(free_.back());
    free_.pop_back();
    return arena;
  }

  void give(dns::RecordArena&& arena) {
    arena.clear();
    std::lock_guard lock(mutex_);
    free_.push_back(std::move(arena));
  }

 private:
  std::mutex mutex_;
  std::vector<dns::RecordArena> free_;
};

/// The open day of a stream: its temporary directory and the engine's
/// scan, from the day's first arena to its rollover. Dropped unfinished,
/// it removes the directory and everything the scan wrote.
class OpenDay {
 public:
  OpenDay(dns::Day day, const dns::PublicSuffixList& psl, const graph::OutOfCoreConfig& options)
      : engine_(day, psl, directory_.graph_path(), options), day_(day) {}

  dns::Day day() const { return day_; }

  void add(const dns::RecordArena& arena) { engine_.add(arena); }

  /// The rollover: the last partial batch, the passes after the scan and
  /// the map.
  PrepareResult finish(const graph::NameSet& cc_blacklist, const graph::NameSet& e2ld_whitelist) {
    const std::int64_t start_ns = obs::now_ns();
    const double scanned = engine_.scan_seconds();
    return directory_.map(engine_.finish(cc_blacklist, e2ld_whitelist), start_ns, scanned);
  }

 private:
  PrepareDirectory directory_;  // first: the engine's files live in it
  graph::StreamingPrepare engine_;
  dns::Day day_;
};

}  // namespace

Pipeline::Pipeline(const dns::PublicSuffixList& psl, SegugioConfig config)
    : Pipeline(psl, kNoActivity, kNoPdns, std::move(config)) {}

Pipeline::Pipeline(const dns::PublicSuffixList& psl, const dns::DomainActivityIndex& activity,
                   const dns::PassiveDnsDb& pdns, SegugioConfig config)
    : psl_(&psl), detector_(std::move(config)), activity_(&activity), pdns_(&pdns) {}

void Pipeline::absorb_history(const dns::DomainActivityIndex& activity,
                              const dns::PassiveDnsDb& pdns) {
  activity_ = &activity;
  pdns_ = &pdns;
}

IngestStats Pipeline::ingest_stream(dns::TraceSource& source,
                                    const BlacklistProvider& cc_blacklist,
                                    const graph::NameSet& e2ld_whitelist,
                                    const DayCallback& on_day, const IngestOptions& options) {
  SEG_SPAN("pipeline/ingest_stream");
  IngestStats stats;
  util::IngestQueue<dns::RecordArena> queue(util::kDefaultQueueCapacity, "seg_ingest_queue");
  ArenaPool arenas;

  const std::size_t batch_records = options.batch_records == 0 ? 1 : options.batch_records;
  std::exception_ptr producer_error;
  std::thread producer([&] {
    try {
      // An arena ends at each day change and after every batch_records-th
      // record of the stream, so the pushes fall at the same stream
      // positions whatever the day lengths, plus one per day change.
      // `record` holds a decoded record no arena has taken yet while
      // `pending` is set.
      dns::QueryRecord record;
      bool pending = false;
      bool exhausted = false;
      std::uint64_t decoded = 0;
      while (!exhausted) {
        obs::Span fill_span("ingest/fill");
        if (!pending && !source.next(record)) {
          break;
        }
        dns::RecordArena arena = arenas.take();
        const dns::Day day = record.day;
        do {
          arena.add(record);
          pending = false;
          if (++decoded % batch_records == 0) {
            break;
          }
          pending = source.next(record);
          exhausted = !pending;
        } while (pending && record.day == day);
        fill_span.close();
        if (!queue.push(std::move(arena))) {
          break;  // consumer cancelled; stop parsing
        }
      }
    } catch (...) {
      producer_error = std::current_exception();
    }
    queue.close();
  });

  std::optional<OpenDay> open;
  const auto roll_over = [&] {
    obs::Span span("pipeline/ingest_day");
    const dns::Day day = open->day();
    auto prepared = open->finish(cc_blacklist(day), e2ld_whitelist);
    open.reset();
    PreparedDay ready;
    ready.graph = std::move(prepared.graph);
    ready.prune_stats = prepared.prune_stats;
    ready.timings = prepared.timings;
    ready.day = day;
    span.close();

    obs::Registry::instance().counter("seg_pipeline_days_ingested_total").add(1);
    if (journal_enabled()) {
      journal_open_day(ready, ready.timings.build.records);
    }
    ++stats.days;
    // Day watermark: the newest *prepared* day. The health sampler reports
    // the gap to seg_ingest_current_day as lag.
    obs::Registry::instance().gauge("seg_ingest_day_watermark").set(static_cast<double>(day));
    if (on_day) {
      on_day(std::move(ready));
    }
  };

  try {
    while (auto arena = queue.pop()) {
      if (open && arena->day != open->day()) {
        util::require_data(arena->day > open->day(),
                           "ingest_stream: day went backwards (" + std::to_string(arena->day) +
                               " after " + std::to_string(open->day()) + ")");
        roll_over();
      }
      if (!open) {
        open.emplace(arena->day, *psl_, detector_.config().prepare_options());
        obs::Registry::instance().gauge("seg_ingest_current_day").set(
            static_cast<double>(arena->day));
      }
      open->add(*arena);
      stats.records += arena->size();
      arenas.give(std::move(*arena));
    }
  } catch (...) {
    queue.cancel();  // wake any blocked push before joining
    producer.join();
    throw;
  }
  producer.join();
  // A failed source may have cut the open day short: rethrow before it is
  // finished, so on_day only ever sees days that ended at a rollover or at
  // a clean end of the source.
  if (producer_error) {
    std::rethrow_exception(producer_error);
  }
  if (open) {
    roll_over();
  }
  stats.queue = queue.stats();
  stats.wire_skipped = source.skipped();
  return stats;
}

void Pipeline::train(const PreparedDay& day) {
  SEG_SPAN("pipeline/train");
  detector_.train(day.graph, *activity_, *pdns_);
  if (journal_enabled() && journal_pending_ && journal_pending_->day == day.day &&
      !journal_pending_->find_gauge("calibration_threshold")) {
    const std::uint64_t* malware = journal_pending_->find_counter("malware_domains");
    const std::uint64_t* benign = journal_pending_->find_counter("benign_domains");
    if (malware && benign && *malware > 0 && *benign > 0) {
      const CalibrationResult calibration = calibrate_threshold(
          detector_, day.graph, *activity_, *pdns_, kJournalCalibrationMaxFpr);
      journal_pending_->add_gauge("calibration_threshold", calibration.threshold);
      journal_pending_->add_gauge("calibration_tpr", calibration.achieved_tpr);
      journal_pending_->add_gauge("calibration_fpr", calibration.achieved_fpr);
      obs::Registry::instance()
          .gauge("seg_pipeline_calibration_threshold")
          .set(calibration.threshold);
    }
  }
}

DetectionReport Pipeline::classify(const PreparedDay& day) const {
  SEG_SPAN("pipeline/classify");
  DetectionReport report = detector_.classify(day.graph, *activity_, *pdns_);
  if (journal_enabled()) {
    journal_annotate_classify(day, report);
  }
  return report;
}

void Pipeline::set_journal(std::ostream* out) {
  flush_journal();
  journal_writer_.reset();
  journal_pending_.reset();
  journal_baseline_.reset();
  if (out != nullptr) {
    journal_writer_ = std::make_unique<obs::JournalWriter>(*out);
  }
}

void Pipeline::flush_journal() {
  if (!journal_writer_ || !journal_pending_) {
    return;
  }
  // Pin the drift baseline: the first entry that carries a score
  // histogram (i.e. the first classified day).
  if (!journal_baseline_ && journal_pending_->find_histogram("scores") != nullptr) {
    journal_baseline_ = *journal_pending_;
  }
  obs::Span span("obs/journal_append");
  journal_writer_->append(*journal_pending_);
  journal_pending_.reset();
  obs::Registry::instance().counter("seg_journal_entries_total").add(1);
}

void Pipeline::journal_open_day(const PreparedDay& day, std::size_t records) {
  flush_journal();  // the rollover write for the previous day
  obs::JournalEntry entry;
  entry.day = day.day;
  entry.add_counter("records", records);
  entry.add_counter("machines", day.graph.machine_count());
  entry.add_counter("domains", day.graph.domain_count());
  entry.add_counter("edges", day.graph.edge_count());
  std::size_t unknown = 0;
  std::size_t malware = 0;
  std::size_t benign = 0;
  for (std::size_t d = 0; d < day.graph.domain_count(); ++d) {
    switch (day.graph.domain_label(static_cast<graph::DomainId>(d))) {
      case graph::Label::kUnknown: ++unknown; break;
      case graph::Label::kBenign: ++benign; break;
      case graph::Label::kMalware: ++malware; break;
    }
  }
  entry.add_counter("unknown_domains", unknown);
  entry.add_counter("malware_domains", malware);
  entry.add_counter("benign_domains", benign);
  const graph::PruneStats& prune = day.prune_stats;
  entry.add_counter("prune_machines_before", prune.machines_before);
  entry.add_counter("prune_machines_after", prune.machines_after);
  entry.add_counter("prune_domains_before", prune.domains_before);
  entry.add_counter("prune_domains_after", prune.domains_after);
  entry.add_counter("prune_edges_before", prune.edges_before);
  entry.add_counter("prune_edges_after", prune.edges_after);
  entry.add_counter("prune_machines_removed_r1", prune.machines_removed_r1);
  entry.add_counter("prune_machines_removed_r2", prune.machines_removed_r2);
  entry.add_counter("prune_domains_removed_r3", prune.domains_removed_r3);
  entry.add_counter("prune_domains_removed_r4", prune.domains_removed_r4);
  journal_pending_ = std::move(entry);
}

void Pipeline::journal_annotate_classify(const PreparedDay& day,
                                         const DetectionReport& report) const {
  if (!journal_pending_ || journal_pending_->day != day.day ||
      journal_pending_->find_histogram("scores") != nullptr) {
    return;  // not this day's entry, or already annotated
  }
  obs::Span span("obs/journal_annotate");

  std::vector<double> bounds;
  bounds.reserve(kJournalScoreBins);
  for (std::size_t i = 1; i <= kJournalScoreBins; ++i) {
    bounds.push_back(static_cast<double>(i) / static_cast<double>(kJournalScoreBins));
  }
  obs::JournalHistogram scores = obs::JournalHistogram::with_bounds(std::move(bounds));
  for (const DomainScore& scored : report.scores) {
    scores.observe(scored.score);
  }
  journal_pending_->add_histogram("scores", std::move(scores));

  // Per-feature summary histograms over the day's unknown domains, walked
  // serially in domain-id order: deterministic for every SEG_THREADS (the
  // per-domain extract() calls touch no shared state).
  std::vector<obs::JournalHistogram> feature_hists;
  feature_hists.reserve(features::kNumFeatures);
  for (std::size_t i = 0; i < features::kNumFeatures; ++i) {
    feature_hists.push_back(
        obs::JournalHistogram::with_bounds(features::feature_histogram_bounds(i)));
  }
  const features::FeatureExtractor extractor(day.graph, *activity_, *pdns_,
                                             config().features);
  for (std::size_t d = 0; d < day.graph.domain_count(); ++d) {
    const auto id = static_cast<graph::DomainId>(d);
    if (day.graph.domain_label(id) != graph::Label::kUnknown) {
      continue;
    }
    const features::FeatureVector vector = extractor.extract(id);
    for (std::size_t i = 0; i < features::kNumFeatures; ++i) {
      feature_hists[i].observe(vector[i]);
    }
  }
  const std::vector<std::string>& names = features::feature_names();
  for (std::size_t i = 0; i < features::kNumFeatures; ++i) {
    journal_pending_->add_histogram(names[i], std::move(feature_hists[i]));
  }

  if (journal_baseline_) {
    const obs::DriftResult drift =
        obs::compute_drift(*journal_baseline_, *journal_pending_);
    for (const auto& [name, value] : drift.gauges) {
      journal_pending_->add_gauge("drift_" + name, value);
    }
    for (const obs::JournalAlert& alert : drift.alerts) {
      journal_pending_->alerts.push_back(alert);
    }
    obs::export_drift(drift);
  }
}

}  // namespace seg::core
