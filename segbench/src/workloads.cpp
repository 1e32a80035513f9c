// Workload processes: load the files setup wrote, replay them through the
// program for a fixed time, check every scored ISP-day against the
// reference digest, and print the metrics.
//
// Untraced passes call the program the way a deployment does and give the
// end-to-end metrics. Traced passes give the per-layer ledger: oocore-day
// is composed here from the public calls of each layer, each call timed
// from this file; wire-stream runs the real streaming session with a
// timing TraceSource around the capture and the same composed
// train/classify inside the day callback. Every traced day is checked
// against the same reference, so the composition is proven bit-identical
// to the untraced program.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/pipeline.h"
#include "dns/trace_source.h"
#include "features/extractor.h"
#include "features/training_set.h"
#include "graph/graph_compressed.h"
#include "graph/oocore.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "util/obs/process.h"
#include "util/parallel.h"

namespace segbench {

namespace {

using seg::dns::Day;

/// Share of the traced wall time the named layers may leave unexplained.
constexpr double kLedgerTolerance = 0.05;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// What a workload process holds: the history stores and label sets; the
/// input itself is streamed from the files setup wrote.
struct Inputs {
  Layout layout;
  seg::dns::PublicSuffixList psl = seg::dns::PublicSuffixList::with_default_rules();
  seg::dns::DomainActivityIndex activity;
  seg::dns::PassiveDnsDb pdns;
  seg::graph::NameSet whitelist;
  std::map<Day, seg::graph::NameSet> blacklists;
  std::vector<DayRef> reference;
  seg::graph::NameSet truth;  ///< ground truth for the TPR metric only
};

Inputs load_inputs(Workload workload, const std::string& dir) {
  Inputs in;
  in.layout.dir = dir;
  {
    std::ifstream activity(in.layout.activity(), std::ios::binary);
    std::ifstream pdns(in.layout.pdns(), std::ios::binary);
    if (!activity || !pdns) {
      throw std::runtime_error("no history stores in " + dir + " (run setup first)");
    }
    in.activity = seg::dns::DomainActivityIndex::load(activity);
    in.pdns = seg::dns::PassiveDnsDb::load(pdns);
  }
  in.whitelist = read_names(in.layout.whitelist());
  in.reference = read_reference(in.layout.reference());
  in.truth = read_names(in.layout.truth());
  if (workload == Workload::kOocoreDay) {
    in.blacklists.emplace(kFirstDay, read_names(in.layout.blacklist(kFirstDay)));
  } else {
    in.blacklists = read_blacklists(in.layout);
  }
  return in;
}

/// The per-layer ledger of the traced passes (sums over those passes).
struct Ledger {
  // dns.wire + util.queue (wire-stream's producer thread)
  double decode = 0.0;
  double producer_wait = 0.0;
  std::uint64_t wire_records = 0;
  std::uint64_t skipped = 0;
  std::uint64_t blocked_pushes = 0;
  std::uint64_t max_depth = 0;
  std::uint64_t dropped = 0;
  // core.pipeline
  double assemble_wait = 0.0;
  // graph
  double build = 0.0;
  std::uint64_t build_records = 0;
  std::uint64_t edges = 0;
  double label = 0.0;
  double prune = 0.0;
  std::uint64_t prune_edges_before = 0;
  std::uint64_t prune_edges_after = 0;
  double oocore_prepare = 0.0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t spill_segments = 0;
  double map = 0.0;
  // features + ml
  double history = 0.0;
  double train_rows_s = 0.0;
  std::uint64_t train_rows = 0;
  double unknown_rows_s = 0.0;
  std::uint64_t unknown_rows = 0;
  double fit = 0.0;
  std::uint64_t fit_rows = 0;
  double predict = 0.0;

  double layer_seconds() const {
    return assemble_wait + build + label + prune + oocore_prepare + map + history +
           train_rows_s + unknown_rows_s + fit + predict;
  }
};

/// Per-ISP-day samples of one pass, keyed by the day's index in the
/// reference, so a pass that loses a day leaves a gap instead of shifting
/// later days into its slot.
using DaySamples = std::map<std::size_t, double>;

/// What one pass measured.
struct PassFigures {
  std::uint64_t records = 0;
  double seconds = 0.0;
  DaySamples learn, classify, lag;

  double rate() const { return ratio(static_cast<double>(records), seconds); }
};

/// The passes of a run and the correctness tally over all of them.
struct Tally {
  std::vector<PassFigures> untraced;
  std::vector<PassFigures> traced;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  // Pooled scores of the first untraced pass, labeled from ground truth.
  std::vector<int> labels;
  std::vector<double> scores;
};

class Checker {
 public:
  Checker(const Inputs& in, Tally& tally) : in_(in), tally_(tally) {}

  /// Checks one scored ISP-day against the reference; false when it fails.
  bool day(const DayRef& ref, const std::vector<seg::core::DomainScore>& scores,
           std::uint64_t records) {
    const bool ok =
        records == ref.records && scores.size() == ref.scored && score_digest(scores) == ref.digest;
    if (!ok) {
      std::fprintf(stderr, "isp %zu day %d: scores or records differ from the reference\n",
                   ref.isp, ref.day);
    }
    if (keep_) {
      for (const auto& s : scores) {
        tally_.labels.push_back(in_.truth.contains(s.name) ? 1 : 0);
        tally_.scores.push_back(s.score);
      }
    }
    return ok;
  }

  void set_keep_scores(bool keep) { keep_ = keep; }

 private:
  const Inputs& in_;
  Tally& tally_;
  bool keep_ = false;
};

void log_failure(const char* what, const std::exception& e) {
  std::fprintf(stderr, "%s failed: %s\n", what, e.what());
}

// --- the traced composition of train and classify ---------------------------

struct Stopwatch {
  double start = now_seconds();
  /// Seconds since the last lap (or construction), restarting the lap.
  double lap() {
    const double t = now_seconds();
    const double elapsed = t - start;
    start = t;
    return elapsed;
  }
};

// Segugio::train, layer by layer: F2/F3 history, hidden-label training
// rows, forest fit.
template <typename Activity, typename Pdns>
std::unique_ptr<seg::ml::RandomForest> traced_train(const seg::graph::GraphView& graph,
                                                    const Activity& activity, const Pdns& pdns,
                                                    const seg::core::SegugioConfig& config,
                                                    Ledger& ledger) {
  Stopwatch watch;
  const seg::features::FeatureExtractor extractor(graph, activity, pdns, config.features);
  ledger.history += watch.lap();
  auto training = seg::features::build_training_set(graph, extractor, config.training);
  ledger.train_rows_s += watch.lap();
  ledger.train_rows += training.malware_rows + training.benign_rows;
  if (training.malware_rows == 0 || training.benign_rows == 0) {
    throw std::runtime_error("training graph lacks a known class");
  }
  auto forest = std::make_unique<seg::ml::RandomForest>(config.forest);
  forest->train(training.dataset);
  ledger.fit += watch.lap();
  ledger.fit_rows += training.dataset.num_rows();
  return forest;
}

// Segugio::classify, layer by layer: F2/F3 history, unknown rows, scoring
// on the shared pool, then the machine attribution of the report (left
// unattributed in the ledger).
template <typename Activity, typename Pdns>
std::vector<seg::core::DomainScore> traced_classify(const seg::graph::GraphView& graph,
                                                    const Activity& activity, const Pdns& pdns,
                                                    const seg::ml::RandomForest& forest,
                                                    const seg::core::SegugioConfig& config,
                                                    Ledger& ledger) {
  Stopwatch watch;
  const seg::features::FeatureExtractor extractor(graph, activity, pdns, config.features);
  ledger.history += watch.lap();
  const auto unknown = seg::features::build_unknown_set(graph, extractor);
  ledger.unknown_rows_s += watch.lap();
  ledger.unknown_rows += unknown.domain_ids.size();
  seg::core::DetectionReport report;
  report.scores.resize(unknown.domain_ids.size());
  seg::util::parallel_for(unknown.domain_ids.size(), [&](std::size_t row) {
    const auto features = unknown.dataset.row(row);
    const std::vector<double> selected(features.begin(), features.end());
    const auto d = unknown.domain_ids[row];
    report.scores[row] = {std::string(graph.domain_name(d)), d, forest.predict_proba(selected)};
  });
  ledger.predict += watch.lap();

  report.machine_names.reserve(graph.machine_count());
  for (seg::graph::MachineId m = 0; m < graph.machine_count(); ++m) {
    report.machine_names.emplace_back(graph.machine_name(m));
  }
  report.machine_offsets.assign(report.scores.size() + 1, 0);
  for (std::size_t i = 0; i < report.scores.size(); ++i) {
    report.machine_offsets[i + 1] =
        report.machine_offsets[i] +
        static_cast<std::uint32_t>(graph.machines_of(report.scores[i].id).size());
  }
  report.machine_refs.resize(report.machine_offsets.back());
  seg::util::parallel_for(report.scores.size(), [&](std::size_t i) {
    std::uint32_t k = report.machine_offsets[i];
    for (const auto m : graph.machines_of(report.scores[i].id)) {
      report.machine_refs[k++] = m;
    }
  });
  return std::move(report.scores);
}

// --- wire-stream --------------------------------------------------------------

// Wraps the capture source on the producer thread. Always notes when each
// day's last record left the source (for day_report_lag_s); when `timed`,
// also splits the producer's time into decoding (inside next()) and
// everything else (pushing batches into the queue), reading the clock
// once per batch boundary only.
class MeteredSource final : public seg::dns::TraceSource {
 public:
  MeteredSource(seg::dns::TraceSource& inner, bool timed) : inner_(&inner), timed_(timed) {}

  bool next(seg::dns::QueryRecord& record) override {
    const bool batch_start = calls_ % kIngestBatch == 0;
    if (timed_ && batch_start) {
      const double t = now_seconds();
      if (calls_ > 0) {
        wait_ += t - batch_end_;
      }
      batch_begin_ = t;
    }
    const bool got = inner_->next(record);
    const bool batch_end = (calls_ % kIngestBatch) + 1 == kIngestBatch;
    ++calls_;
    if (timed_ && (!got || batch_end)) {
      batch_end_ = now_seconds();
      decode_ += batch_end_ - batch_begin_;
    }
    if (!got) {
      if (open_) {
        close_day();
      }
      return false;
    }
    if (open_ && record.day != day_) {
      close_day();
    }
    day_ = record.day;
    open_ = true;
    ++records_;
    return true;
  }

  std::uint64_t skipped() const override { return inner_->skipped(); }

  /// When `day`'s last record left the source; call after the day is
  /// handed out by the pipeline (the queue orders the two threads).
  double day_end(Day day) const {
    const std::lock_guard lock(mutex_);
    for (const auto& [d, t] : day_ends_) {
      if (d == day) {
        return t;
      }
    }
    throw std::runtime_error("day handed out before its last record was read");
  }

  double decode_seconds() const { return decode_; }
  double wait_seconds() const { return wait_; }
  std::uint64_t records() const { return records_; }

 private:
  void close_day() {
    const double t = now_seconds();
    const std::lock_guard lock(mutex_);
    day_ends_.emplace_back(day_, t);
  }

  seg::dns::TraceSource* inner_;
  bool timed_;
  std::uint64_t calls_ = 0;
  std::uint64_t records_ = 0;
  double batch_begin_ = 0.0;
  double batch_end_ = 0.0;
  double decode_ = 0.0;
  double wait_ = 0.0;
  bool open_ = false;
  Day day_ = 0;
  mutable std::mutex mutex_;
  std::vector<std::pair<Day, double>> day_ends_;
};

// One streaming session per ISP over its capture: train on the first day,
// classify every day. With a ledger, train/classify are the traced
// composition and the producer's time is split by the metered source.
void wire_stream_pass(const Inputs& in, const seg::core::SegugioConfig& config, Tally& tally,
                      Checker& check, PassFigures& figures, Ledger* ledger) {
  std::uint64_t records = 0;
  double wall = 0.0;
  for (std::size_t isp = 0; isp <= in.reference.back().isp; ++isp) {
    std::vector<std::size_t> refs;  // indices into in.reference
    std::uint64_t expected = 0;
    for (std::size_t r = 0; r < in.reference.size(); ++r) {
      if (in.reference[r].isp == isp) {
        refs.push_back(r);
        expected += in.reference[r].records;
      }
    }
    tally.attempted += refs.size();
    std::size_t passed = 0;
    try {
      seg::core::Pipeline pipeline(in.psl, config);
      pipeline.absorb_history(in.activity, in.pdns);
      seg::dns::FileTraceSource capture(in.layout.capture(isp));
      MeteredSource source(capture, ledger != nullptr);
      std::unique_ptr<seg::ml::RandomForest> forest;
      std::size_t index = 0;
      double on_day_seconds = 0.0;
      double prepare_seconds = 0.0;

      const auto on_day = [&](seg::core::PreparedDay&& day) {
        const double t0 = now_seconds();
        const std::size_t r = refs.at(index++);
        const DayRef& ref = in.reference[r];
        if (ledger == nullptr) {
          if (index == 1) {
            pipeline.train(day);
          }
          const double t1 = now_seconds();
          const auto report = pipeline.classify(day);
          const double t2 = now_seconds();
          if (index == 1) {
            figures.learn[r] = day.timings.total_seconds() + (t1 - t0);
          }
          figures.classify[r] = t2 - t1;
          figures.lag[r] = t2 - source.day_end(day.day);
          passed += check.day(ref, report.scores, day.timings.build.records) ? 1 : 0;
        } else {
          const auto view = day.graph.view();
          if (index == 1) {
            forest = traced_train(view, pipeline.activity(), pipeline.pdns(), config, *ledger);
          }
          const auto scores =
              traced_classify(view, pipeline.activity(), pipeline.pdns(), *forest, config, *ledger);
          ledger->build += day.timings.build.total_seconds();
          ledger->build_records += day.timings.build.records;
          ledger->edges += day.timings.build.edges;
          ledger->label += day.timings.label_seconds;
          ledger->prune += day.timings.prune_seconds + day.timings.prober_seconds;
          ledger->prune_edges_before += day.prune_stats.edges_before;
          ledger->prune_edges_after += day.prune_stats.edges_after;
          prepare_seconds += day.timings.total_seconds();
          passed += check.day(ref, scores, day.timings.build.records) ? 1 : 0;
        }
        on_day_seconds += now_seconds() - t0;
      };

      seg::core::IngestOptions options;
      options.batch_records = kIngestBatch;
      const double start = now_seconds();
      const auto stats = pipeline.ingest_stream(
          source, [&](Day day) -> const seg::graph::NameSet& { return in.blacklists.at(day); },
          in.whitelist, on_day, options);
      const double session = now_seconds() - start;
      wall += session;
      records += stats.records;
      const bool complete = stats.records == expected && stats.queue.dropped_records == 0 &&
                            stats.days == refs.size();
      if (!complete) {
        std::fprintf(stderr, "isp %zu: %llu of %llu records, %zu of %zu days, %llu dropped\n",
                     isp, static_cast<unsigned long long>(stats.records),
                     static_cast<unsigned long long>(expected), stats.days, refs.size(),
                     static_cast<unsigned long long>(stats.queue.dropped_records));
        passed = 0;
      }
      if (ledger != nullptr) {
        ledger->decode += source.decode_seconds();
        ledger->producer_wait += source.wait_seconds();
        ledger->wire_records += source.records();
        ledger->skipped += stats.wire_skipped;
        ledger->blocked_pushes += stats.queue.blocked_pushes;
        ledger->max_depth = std::max<std::uint64_t>(ledger->max_depth, stats.queue.max_depth);
        ledger->dropped += stats.queue.dropped_records;
        ledger->assemble_wait += session - on_day_seconds - prepare_seconds;
      }
    } catch (const std::exception& e) {
      log_failure("wire-stream session", e);
    }
    tally.failed += refs.size() - passed;
  }
  figures.records = records;
  figures.seconds = wall;
}

// --- oocore-day ---------------------------------------------------------------

seg::graph::OutOfCoreConfig oocore_config(const seg::core::SegugioConfig& config) {
  seg::graph::OutOfCoreConfig ooc;
  ooc.pruning = config.pruning;
  return ooc;
}

void oocore_pass(const Inputs& in, const seg::core::SegugioConfig& config, Tally& tally,
                 Checker& check, PassFigures& figures, Ledger* ledger) {
  const DayRef& ref = in.reference.front();
  const auto& blacklist = in.blacklists.at(ref.day);
  ++tally.attempted;
  const double start = now_seconds();
  std::uint64_t records = 0;
  try {
    Stopwatch watch;
    const auto result = seg::graph::prepare_graph_out_of_core(
        in.layout.oocore_trace(), in.psl, blacklist, in.whitelist, in.layout.oocore_graph(),
        oocore_config(config));
    const double prepare = watch.lap();
    const auto mapped = seg::graph::map_graph(in.layout.oocore_graph());
    const double map = watch.lap();
    records = result.records;
    std::vector<seg::core::DomainScore> scores;
    if (ledger == nullptr) {
      seg::core::Segugio detector(config);
      detector.train(mapped.view, in.activity, in.pdns);
      const double learned = now_seconds();
      auto report = detector.classify(mapped.view, in.activity, in.pdns);
      const double classified = now_seconds();
      figures.learn[0] = learned - start;
      figures.classify[0] = classified - learned;
      figures.lag[0] = classified - start;
      scores = std::move(report.scores);
    } else {
      ledger->oocore_prepare += prepare;
      ledger->map += map;
      ledger->spill_bytes += result.spill_bytes;
      ledger->spill_segments += result.spill_segments;
      ledger->edges += result.prune_stats.edges_before;
      ledger->prune_edges_before += result.prune_stats.edges_before;
      ledger->prune_edges_after += result.prune_stats.edges_after;
      const auto forest = traced_train(mapped.view, in.activity, in.pdns, config, *ledger);
      scores = traced_classify(mapped.view, in.activity, in.pdns, *forest, config, *ledger);
    }
    tally.failed += check.day(ref, scores, records) ? 0 : 1;
  } catch (const std::exception& e) {
    ++tally.failed;
    log_failure("oocore-day pass", e);
  }
  figures.records = records;
  figures.seconds = now_seconds() - start;
}

// --- output -------------------------------------------------------------------

class MetricsJson {
 public:
  void add(const char* name, double value, const char* unit) {
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    out_ << (first_ ? "{" : ", ") << '"' << name << "\": {\"value\": " << buffer
         << ", \"unit\": \"" << unit << "\"}";
    first_ = false;
  }
  std::string str() const {
    std::string text = out_.str();
    text.push_back('}');
    return text;
  }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

// The end-to-end figures of a run are best-of-passes. Interference from
// other tenants of the host only ever slows the program down, and it comes
// in bursts of a few seconds, so the fastest of several repeats tracks the
// program, not its neighbours, much better than their median does.
double best_rate(const std::vector<PassFigures>& passes) {
  double best = 0.0;
  for (const auto& figures : passes) {
    best = std::max(best, figures.rate());
  }
  return best;
}

// Mean over the ISP-days of each day's fastest repeat. The mean weighs
// small and large ISP-days in fixed proportion, where a median over days
// would jump between the two ISP sizes.
double best_day(const std::vector<PassFigures>& passes, DaySamples PassFigures::*samples) {
  DaySamples best;
  for (const auto& figures : passes) {
    for (const auto& [day, seconds] : figures.*samples) {
      const auto [it, fresh] = best.emplace(day, seconds);
      if (!fresh) {
        it->second = std::min(it->second, seconds);
      }
    }
  }
  double sum = 0.0;
  for (const auto& [day, seconds] : best) {
    sum += seconds;
  }
  return ratio(sum, static_cast<double>(best.size()));
}

}  // namespace

int run_workload(Workload workload, const std::string& dir, double seconds, bool traced) {
  const std::size_t threads = pinned_threads();
  seg::util::set_parallelism(threads);
  const auto config = detector_config(threads);
  const Inputs in = load_inputs(workload, dir);

  Tally tally;
  Checker check(in, tally);
  Ledger ledger;
  const auto pass = [&](Ledger* l) {
    PassFigures figures;
    switch (workload) {
      case Workload::kWireStream: wire_stream_pass(in, config, tally, check, figures, l); break;
      case Workload::kOocoreDay: oocore_pass(in, config, tally, check, figures, l); break;
    }
    (l == nullptr ? tally.untraced : tally.traced).push_back(figures);
  };

  // A traced run alternates untraced and traced passes, so drift of the
  // host slows both alike and their ratio stays the tracing overhead.
  // The run ends where the next pass would overshoot `seconds` by more
  // than half of itself, so its length stays close to `seconds`.
  const double start = now_seconds();
  double last_pass = 0.0;
  do {
    const double pass_start = now_seconds();
    check.set_keep_scores(tally.untraced.empty());
    pass(nullptr);
    check.set_keep_scores(false);
    if (traced) {
      pass(&ledger);
    }
    last_pass = now_seconds() - pass_start;
  } while (now_seconds() - start + last_pass / 2.0 < seconds);

  const double rss_mb =
      static_cast<double>(seg::obs::sample_process().rss_peak_kb) / 1024.0;
  const double tpr = tally.scores.empty()
                         ? 0.0
                         : seg::ml::RocCurve::compute(tally.labels, tally.scores).tpr_at_fpr(0.001);
  bool correct = tally.failed == 0;

  MetricsJson metrics;
  if (!traced) {
    metrics.add("records_per_s", best_rate(tally.untraced), "1/s");
    metrics.add("day_learn_s", best_day(tally.untraced, &PassFigures::learn), "s");
    metrics.add("day_classify_s", best_day(tally.untraced, &PassFigures::classify), "s");
    metrics.add("day_report_lag_s", best_day(tally.untraced, &PassFigures::lag), "s");
    metrics.add("peak_rss_mb", rss_mb, "MB");
    metrics.add("tpr_at_fpr_0.001", tpr, "ratio");
  } else {
    const double n = static_cast<double>(tally.traced.size());
    double wall = 0.0;
    for (const auto& figures : tally.traced) {
      wall += figures.seconds;
    }
    const double unattributed = wall - ledger.layer_seconds();
    if (std::abs(unattributed) > kLedgerTolerance * wall) {
      std::fprintf(stderr,
                   "ledger: %.4f s of %.4f s traced wall unattributed (tolerance %.0f%%)\n",
                   unattributed, wall, 100.0 * kLedgerTolerance);
      correct = false;
    }
    metrics.add("dns.wire.decode_s", ledger.decode / n, "s");
    metrics.add("dns.wire.records_per_s", ratio(ledger.wire_records, ledger.decode), "1/s");
    metrics.add("dns.wire.skipped", ledger.skipped / n, "count");
    metrics.add("util.queue.producer_wait_s", ledger.producer_wait / n, "s");
    metrics.add("util.queue.blocked_pushes", ledger.blocked_pushes / n, "count");
    metrics.add("util.queue.max_depth", static_cast<double>(ledger.max_depth), "count");
    metrics.add("util.queue.dropped_records", ledger.dropped / n, "count");
    metrics.add("core.pipeline.assemble_wait_s", ledger.assemble_wait / n, "s");
    metrics.add("graph.build_s", ledger.build / n, "s");
    metrics.add("graph.build_records_per_s", ratio(ledger.build_records, ledger.build), "1/s");
    metrics.add("graph.edges", ledger.edges / n, "count");
    metrics.add("graph.label_s", ledger.label / n, "s");
    metrics.add("graph.prune_s", ledger.prune / n, "s");
    metrics.add("graph.prune_edges_kept_ratio",
                ratio(ledger.prune_edges_after, ledger.prune_edges_before), "ratio");
    metrics.add("graph.oocore.prepare_s", ledger.oocore_prepare / n, "s");
    metrics.add("graph.oocore.spill_bytes", ledger.spill_bytes / n, "bytes");
    metrics.add("graph.oocore.spill_segments", ledger.spill_segments / n, "count");
    metrics.add("graph.map_s", ledger.map / n, "s");
    metrics.add("features.history_s", ledger.history / n, "s");
    metrics.add("features.train_rows_s", ledger.train_rows_s / n, "s");
    metrics.add("features.train_rows", ledger.train_rows / n, "count");
    metrics.add("features.unknown_rows_s", ledger.unknown_rows_s / n, "s");
    metrics.add("features.unknown_rows", ledger.unknown_rows / n, "count");
    metrics.add("ml.fit_s", ledger.fit / n, "s");
    metrics.add("ml.fit_rows", ledger.fit_rows / n, "count");
    metrics.add("ml.predict_s", ledger.predict / n, "s");
    metrics.add("ml.predict_rows_per_s", ratio(ledger.unknown_rows, ledger.predict), "1/s");
    metrics.add("unattributed_s", unattributed / n, "s");
    metrics.add("trace_overhead_ratio",
                ratio(best_rate(tally.traced), best_rate(tally.untraced)), "ratio");
    metrics.add("failed_day_ratio", ratio(tally.failed, tally.attempted), "ratio");
  }

  std::printf("# workload=%s threads=%zu usable_cpus=%zu hardware_concurrency=%u "
              "passes=%zu traced_passes=%zu\n",
              std::string(workload_name(workload)).c_str(), threads, usable_cpus(),
              std::thread::hardware_concurrency(), tally.untraced.size(), tally.traced.size());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", tally.attempted, tally.failed, metrics.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace segbench
