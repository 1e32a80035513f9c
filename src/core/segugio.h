// The Segugio detector: graph preparation, training, and classification
// (Figure 2's pipeline).
//
// Typical deployment flow — a multi-day streaming session through
// core::Pipeline (core/pipeline.h), which owns the history stores and
// prepares each completed day with prepare_graph():
//
//   core::Pipeline pipeline(psl, activity, pdns, config);
//   dns::FileTraceSource tap("resolver.dnstap");
//   pipeline.ingest_stream(tap, blacklist_for_day, whitelist,
//                          [&](core::PreparedDay&& day) {
//                            if (!pipeline.detector().is_trained()) {
//                              pipeline.train(day);
//                            }
//                            auto report = pipeline.classify(day);
//                            for (auto& hit : report.detections_at(threshold)) ...
//                          });
//
// The lower-level one-shot flow used by the experiments:
//
//   auto prep = Segugio::prepare_graph(trace, psl, blacklist, whitelist,
//                                      config.prepare_options());
//   Segugio segugio(config);
//   segugio.train(prep.graph, activity, pdns);
//
// prepare_graph() runs the preparation engine (graph/oocore.h) over the
// in-memory day and serves the result from a private mapping
// (graph::PreparedGraph, itself a GraphView). train() and classify() take
// a graph::GraphView: a prepared graph or a heap graph passes as it is,
// and an mmap-resident graph (graph::map_graph) passes its view. Scores
// and the fitted model are bit-identical for every backing.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dns/activity_index.h"
#include "dns/pdns.h"
#include "dns/public_suffix_list.h"
#include "dns/query_log.h"
#include "features/training_set.h"
#include "graph/graph_compressed.h"
#include "graph/oocore.h"
#include "graph/prober_filter.h"
#include "graph/pruning.h"
#include "ml/logistic_regression.h"
#include "ml/random_forest.h"

namespace seg::core {

enum class ClassifierKind { kRandomForest, kLogisticRegression };

struct SegugioConfig {
  graph::PruningConfig pruning = scaled_pruning_defaults();
  features::FeatureConfig features;
  ml::RandomForestConfig forest = balanced_forest_defaults();
  ml::LogisticRegressionConfig logistic;
  ClassifierKind classifier = ClassifierKind::kRandomForest;
  features::TrainingSetOptions training;
  /// Feature columns to use (indices into the 11-feature vector); empty
  /// means all. Set via features::feature_indices_excluding(...) for the
  /// Figure 7 ablations.
  std::vector<std::size_t> feature_subset;
  /// When set, prepare_graph removes "probing" clients (machines querying
  /// implausibly many blacklisted domains, Section VI) before pruning.
  std::optional<graph::ProberFilterConfig> prober_filter;

  /// Pruning thresholds adjusted for simulated populations of thousands of
  /// machines: the paper's 99.99th percentile (R2) assumes millions of
  /// machines, so we use 99.9 at this scale. All other rules are as
  /// published.
  static graph::PruningConfig scaled_pruning_defaults() {
    graph::PruningConfig pruning;
    pruning.proxy_degree_percentile = 0.999;
    return pruning;
  }

  /// Known malware domains are orders of magnitude rarer than whitelisted
  /// ones; the stratified bootstrap guarantees every tree trains on both
  /// classes even when only a handful of C&C domains are known.
  static ml::RandomForestConfig balanced_forest_defaults() {
    ml::RandomForestConfig forest;
    forest.stratified_bootstrap = true;
    return forest;
  }

  /// The graph-preparation slice of this config (pruning and prober
  /// filter), for prepare_graph().
  graph::OutOfCoreConfig prepare_options() const;
};

/// Wall-clock breakdown of the last train()/classify() calls (Section IV-G).
/// A view over the obs spans "train/features", "train/fit",
/// "classify/features", "classify/score"; row counts live in the obs
/// registry as seg_train_rows_total / seg_classify_rows_total.
struct PipelineTimings {
  double train_feature_seconds = 0.0;
  double train_fit_seconds = 0.0;
  double classify_feature_seconds = 0.0;
  double classify_score_seconds = 0.0;
};

/// The graph build of one prepare_graph() call: the engine's scan.
struct BuildTimings {
  double scan_seconds = 0.0;  ///< span "oocore/scan"
  std::size_t records = 0;    ///< records read
  std::size_t edges = 0;      ///< distinct edges before pruning

  double total_seconds() const { return scan_seconds; }
};

/// Wall-clock breakdown of one prepare_graph() call: the learning-side
/// stages that precede training (Section IV-G's graph build + pruning).
/// A view over the engine's spans (graph/oocore.h); the fields add up to
/// the whole call.
struct PrepareTimings {
  BuildTimings build;            ///< "oocore/scan"
  double label_seconds = 0.0;    ///< "oocore/labels"
  double prober_seconds = 0.0;   ///< "oocore/probers"; 0 without a prober filter
  /// "oocore/prune-masks" + "oocore/write" + the map, and the rest of the
  /// call (the per-call temporary directory).
  double prune_seconds = 0.0;

  double total_seconds() const {
    return build.total_seconds() + label_seconds + prober_seconds + prune_seconds;
  }
};

/// One scored (previously unknown) domain.
struct DomainScore {
  std::string name;
  graph::DomainId id = 0;
  double score = 0.0;
};

/// One confirmed detection with the infected machines that implicate it.
struct Detection {
  DomainScore domain;
  std::vector<std::string> machines;  ///< machines that queried it
};

/// Self-contained classification result: classify() captures the machine
/// attribution of every scored domain at scoring time, so the report can
/// outlive the graph it was produced from (a deployment can archive
/// reports while graphs are rebuilt daily).
struct DetectionReport {
  std::vector<DomainScore> scores;  ///< every unknown domain, scored

  /// Machine attribution, parallel to `scores`: the machines that queried
  /// scores[i] are machine_names[machine_refs[k]] for k in
  /// [machine_offsets[i], machine_offsets[i + 1]).
  std::vector<std::string> machine_names;
  std::vector<std::uint32_t> machine_offsets;
  std::vector<std::uint32_t> machine_refs;

  /// Domains with score >= threshold, most suspicious first, with the
  /// querying machines from the attribution captured at classify() time.
  std::vector<Detection> detections_at(double threshold) const;
};

/// Everything prepare_graph() produces for one day of traffic.
struct PrepareResult {
  graph::PreparedGraph graph;       ///< labeled, (filtered,) pruned
  graph::PruneStats prune_stats;    ///< R1-R4 breakdown
  PrepareTimings timings;           ///< per-stage wall clock
};

class Segugio {
 public:
  explicit Segugio(SegugioConfig config = {});

  /// Builds, labels, (optionally) prober-filters, and prunes a behavior
  /// graph from one day of traffic; core::Pipeline prepares every streamed
  /// day through it too. It runs the preparation engine
  /// (graph::prepare_graph_out_of_core) over `trace` with its spills and
  /// output in a temporary directory of its own under
  /// std::filesystem::temp_directory_path(), maps the output
  /// (graph::map_graph, with all of its checks), and removes the directory
  /// before it returns: the mapping keeps the unlinked file alive. The
  /// graph's day is `trace.day`; a record of another day is a
  /// util::ParseError. The bytes are those of the serial reference
  /// (GraphBuilder, apply_labels, remove_probers, prune) for every pool
  /// size. Safe to call from several threads at once.
  static PrepareResult prepare_graph(
      const dns::DayTrace& trace, const dns::PublicSuffixList& psl,
      const graph::NameSet& cc_blacklist, const graph::NameSet& e2ld_whitelist,
      const graph::OutOfCoreConfig& options = SegugioConfig{}.prepare_options());

  /// Trains the behavior-based classifier from the known domains of a
  /// prepared graph (hidden-label protocol of Figure 5).
  void train(const graph::GraphView& graph, const dns::DomainActivityIndex& activity,
             const dns::PassiveDnsDb& pdns);

  bool is_trained() const;

  /// Scores every unknown domain of a prepared graph and captures the
  /// machine attribution into the report.
  DetectionReport classify(const graph::GraphView& graph,
                           const dns::DomainActivityIndex& activity,
                           const dns::PassiveDnsDb& pdns) const;

  /// Malware score of a single feature vector (full 11 features; the
  /// configured subset is applied internally).
  double score(const features::FeatureVector& features) const;

  /// Picks the smallest detection threshold whose false-positive rate on
  /// (labels, scores) stays within `max_fpr`.
  static double pick_threshold(const std::vector<int>& labels,
                               const std::vector<double>& scores, double max_fpr);

  const SegugioConfig& config() const { return config_; }
  const PipelineTimings& timings() const { return timings_; }

  /// Feature importance of the trained forest (empty for logistic
  /// regression), aligned with the configured feature subset.
  std::vector<double> feature_importance() const;

  /// Serializes the trained detector (classifier + the configuration
  /// needed to score: feature subset, feature windows). Deployment
  /// configuration such as pruning thresholds travels too, so a model
  /// trained in one network can be dropped into another (Section IV-A's
  /// cross-network story). Streams start with the versioned
  /// `segf1 segugio-model <version>` header (util/serialize.h); load()
  /// throws util::ParseError on a stream without the header.
  void save(std::ostream& out) const;
  static Segugio load(std::istream& in);

  /// 2 = segf1 header; 1 was the headerless form, no longer read.
  static constexpr int kModelFormatVersion = 2;

 private:
  std::vector<double> apply_subset(std::span<const double> features) const;

  SegugioConfig config_;
  std::unique_ptr<ml::RandomForest> forest_;
  std::unique_ptr<ml::LogisticRegression> logistic_;
  mutable PipelineTimings timings_;
};

}  // namespace seg::core
