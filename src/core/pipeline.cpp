#include "core/pipeline.h"

#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "core/calibration.h"
#include "features/extractor.h"
#include "features/feature_config.h"
#include "util/obs/drift.h"
#include "util/obs/metrics.h"
#include "util/obs/trace.h"

namespace seg::core {

namespace {

// The journal's fixed settings (see Pipeline::set_journal).
constexpr std::size_t kJournalScoreBins = 20;
constexpr double kJournalCalibrationMaxFpr = 0.01;

}  // namespace

Pipeline::Pipeline(const dns::PublicSuffixList& psl, SegugioConfig config)
    : psl_(&psl), detector_(std::move(config)) {}

Pipeline::Pipeline(const dns::PublicSuffixList& psl, const dns::DomainActivityIndex& activity,
                   const dns::PassiveDnsDb& pdns, SegugioConfig config)
    : Pipeline(psl, std::move(config)) {
  absorb_history(activity, pdns);
}

void Pipeline::absorb_history(const dns::DomainActivityIndex& activity,
                              const dns::PassiveDnsDb& pdns) {
  activity_.absorb(activity);
  pdns_.absorb(pdns);
}

PreparedDay Pipeline::prepare_one_day(const dns::DayTrace& trace,
                                      const graph::NameSet& cc_blacklist,
                                      const graph::NameSet& e2ld_whitelist) {
  obs::Span span("pipeline/ingest_day");
  auto prepared = Segugio::prepare_graph(trace, *psl_, cc_blacklist, e2ld_whitelist,
                                         detector_.config().prepare_options());
  PreparedDay day;
  day.graph = std::move(prepared.graph);
  day.prune_stats = prepared.prune_stats;
  day.timings = prepared.timings;
  day.day = day.graph.day();
  span.close();

  obs::Registry::instance().counter("seg_pipeline_days_ingested_total").add(1);
  if (journal_enabled()) {
    journal_open_day(day, trace.records.size());
  }
  return day;
}

IngestStats Pipeline::ingest_stream(dns::TraceSource& source,
                                    const BlacklistProvider& cc_blacklist,
                                    const graph::NameSet& e2ld_whitelist,
                                    const DayCallback& on_day, const IngestOptions& options) {
  SEG_SPAN("pipeline/ingest_stream");
  IngestStats stats;
  dns::DayTrace current;
  bool open = false;

  const auto flush_day = [&] {
    const dns::Day day = current.day;
    PreparedDay prepared = prepare_one_day(current, cc_blacklist(day), e2ld_whitelist);
    current = dns::DayTrace{};
    open = false;
    ++stats.days;
    // Day watermark: the newest *prepared* day. The health sampler reports
    // the gap to seg_ingest_current_day as lag.
    obs::Registry::instance().gauge("seg_ingest_day_watermark").set(static_cast<double>(day));
    if (on_day) {
      on_day(std::move(prepared));
    }
  };
  const auto deliver = [&](dns::QueryRecord&& record) {
    ++stats.records;
    if (open && record.day != current.day) {
      util::require_data(record.day > current.day,
                         "ingest_stream: day went backwards (" + std::to_string(record.day) +
                             " after " + std::to_string(current.day) + ")");
      flush_day();
    }
    if (!open) {
      current.day = record.day;
      open = true;
      obs::Registry::instance().gauge("seg_ingest_current_day").set(
          static_cast<double>(record.day));
    }
    current.records.push_back(std::move(record));
  };

  using Batch = std::vector<dns::QueryRecord>;
  util::IngestQueue<Batch> queue(util::kDefaultQueueCapacity, "seg_ingest_queue");

  const std::size_t batch_records = options.batch_records == 0 ? 1 : options.batch_records;
  std::exception_ptr producer_error;
  std::thread producer([&] {
    try {
      Batch batch;
      batch.reserve(batch_records);
      dns::QueryRecord record;
      while (source.next(record)) {
        batch.push_back(std::move(record));
        if (batch.size() >= batch_records) {
          if (!queue.push(std::move(batch))) {
            break;  // consumer cancelled; stop parsing
          }
          batch = Batch{};
          batch.reserve(batch_records);
        }
      }
      if (!batch.empty()) {
        queue.push(std::move(batch));
      }
    } catch (...) {
      producer_error = std::current_exception();
    }
    queue.close();
  });

  try {
    while (auto batch = queue.pop()) {
      for (auto& record : *batch) {
        deliver(std::move(record));
      }
    }
  } catch (...) {
    queue.cancel();  // wake any blocked push before joining
    producer.join();
    throw;
  }
  producer.join();
  // A failed source may have cut the open day short: rethrow before it is
  // prepared, so on_day only ever sees days that ended at a rollover or at
  // a clean end of the source.
  if (producer_error) {
    std::rethrow_exception(producer_error);
  }
  if (open) {
    flush_day();
  }
  stats.queue = queue.stats();
  stats.wire_skipped = source.skipped();
  return stats;
}

void Pipeline::train(const PreparedDay& day) {
  SEG_SPAN("pipeline/train");
  detector_.train(day.graph, activity_, pdns_);
  if (journal_enabled() && journal_pending_ && journal_pending_->day == day.day &&
      !journal_pending_->find_gauge("calibration_threshold")) {
    const std::uint64_t* malware = journal_pending_->find_counter("malware_domains");
    const std::uint64_t* benign = journal_pending_->find_counter("benign_domains");
    if (malware && benign && *malware > 0 && *benign > 0) {
      const CalibrationResult calibration = calibrate_threshold(
          detector_, day.graph, activity_, pdns_, kJournalCalibrationMaxFpr);
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
  DetectionReport report = detector_.classify(day.graph, activity_, pdns_);
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
  const features::FeatureExtractor extractor(day.graph, activity_, pdns_,
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
