#include "core/segugio.h"

#include <stdlib.h>

#include <algorithm>
#include <filesystem>
#include <istream>
#include <ostream>
#include <system_error>

#include "graph/labeling.h"
#include "ml/metrics.h"
#include "util/obs/metrics.h"
#include "util/obs/trace.h"
#include "util/parallel.h"
#include "util/require.h"
#include "util/serialize.h"

namespace seg::core {

graph::OutOfCoreConfig SegugioConfig::prepare_options() const {
  graph::OutOfCoreConfig options;
  options.pruning = pruning;
  options.prober_filter = prober_filter;
  return options;
}

std::vector<Detection> DetectionReport::detections_at(double threshold) const {
  util::require(machine_offsets.size() == scores.size() + 1,
                "DetectionReport::detections_at: report carries no machine attribution");
  std::vector<Detection> detections;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (scores[i].score < threshold) {
      continue;
    }
    Detection detection;
    detection.domain = scores[i];
    for (std::uint32_t k = machine_offsets[i]; k < machine_offsets[i + 1]; ++k) {
      detection.machines.push_back(machine_names[machine_refs[k]]);
    }
    detections.push_back(std::move(detection));
  }
  std::sort(detections.begin(), detections.end(), [](const Detection& a, const Detection& b) {
    return a.domain.score > b.domain.score;
  });
  return detections;
}

Segugio::Segugio(SegugioConfig config) : config_(std::move(config)) {}

namespace {

/// A directory of one prepare_graph() call's own under the system temp
/// path, removed with everything in it when the object goes.
class PrepareDirectory {
 public:
  PrepareDirectory()
      : path_((std::filesystem::temp_directory_path() / "segugio-prepare-XXXXXX").string()) {
    util::require_data(::mkdtemp(path_.data()) != nullptr,
                       "Segugio::prepare_graph: cannot create a directory in '" +
                           std::filesystem::temp_directory_path().string() + "'");
  }
  ~PrepareDirectory() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  PrepareDirectory(const PrepareDirectory&) = delete;
  PrepareDirectory& operator=(const PrepareDirectory&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace

PrepareResult Segugio::prepare_graph(const dns::DayTrace& trace,
                                     const dns::PublicSuffixList& psl,
                                     const graph::NameSet& cc_blacklist,
                                     const graph::NameSet& e2ld_whitelist,
                                     const graph::OutOfCoreConfig& options) {
  const std::int64_t start_ns = obs::now_ns();
  PrepareResult result;
  PrepareTimings& t = result.timings;
  {
    const PrepareDirectory directory;
    const std::string graph_path = directory.path() + "/day.graphc";
    const auto engine = graph::prepare_graph_out_of_core(trace, psl, cc_blacklist,
                                                         e2ld_whitelist, graph_path, options);
    result.graph = graph::PreparedGraph(graph::map_graph(graph_path));
    result.prune_stats = engine.prune_stats;
    t.build = {engine.scan_seconds, engine.records, engine.edges};
    t.label_seconds = engine.label_seconds;
    t.prober_seconds = engine.prober_seconds;
  }
  const double total = static_cast<double>(obs::now_ns() - start_ns) * 1e-9;
  t.prune_seconds = total - t.build.total_seconds() - t.label_seconds - t.prober_seconds;
  return result;
}

void Segugio::train(const graph::GraphView& graph, const dns::DomainActivityIndex& activity,
                    const dns::PassiveDnsDb& pdns) {
  obs::Span features_span("train/features");
  const features::FeatureExtractor extractor(graph, activity, pdns, config_.features);
  auto training = features::build_training_set(graph, extractor, config_.training);
  util::require(training.malware_rows > 0,
                "Segugio::train: no known malware domains in the training graph");
  util::require(training.benign_rows > 0,
                "Segugio::train: no known benign domains in the training graph");
  timings_.train_feature_seconds = features_span.close();
  obs::Registry::instance()
      .counter("seg_train_rows_total")
      .add(training.malware_rows + training.benign_rows);

  obs::Span fit_span("train/fit");
  ml::Dataset dataset = config_.feature_subset.empty()
                            ? std::move(training.dataset)
                            : training.dataset.select_features(config_.feature_subset);
  if (config_.classifier == ClassifierKind::kRandomForest) {
    forest_ = std::make_unique<ml::RandomForest>(config_.forest);
    forest_->train(dataset);
    logistic_.reset();
  } else {
    logistic_ = std::make_unique<ml::LogisticRegression>(config_.logistic);
    logistic_->train(dataset);
    forest_.reset();
  }
  timings_.train_fit_seconds = fit_span.close();
}

bool Segugio::is_trained() const {
  return (forest_ != nullptr && forest_->is_trained()) ||
         (logistic_ != nullptr && logistic_->is_trained());
}

std::vector<double> Segugio::apply_subset(std::span<const double> features) const {
  if (config_.feature_subset.empty()) {
    return {features.begin(), features.end()};
  }
  std::vector<double> selected;
  selected.reserve(config_.feature_subset.size());
  for (const auto index : config_.feature_subset) {
    selected.push_back(features[index]);
  }
  return selected;
}

double Segugio::score(const features::FeatureVector& features) const {
  util::require(is_trained(), "Segugio::score: classifier not trained");
  const auto selected = apply_subset(features);
  return forest_ != nullptr ? forest_->predict_proba(selected)
                            : logistic_->predict_proba(selected);
}

DetectionReport Segugio::classify(const graph::GraphView& graph,
                                  const dns::DomainActivityIndex& activity,
                                  const dns::PassiveDnsDb& pdns) const {
  util::require(is_trained(), "Segugio::classify: classifier not trained");
  obs::Span features_span("classify/features");
  const features::FeatureExtractor extractor(graph, activity, pdns, config_.features);
  auto unknown = features::build_unknown_set(graph, extractor);
  timings_.classify_feature_seconds = features_span.close();

  obs::Span score_span("classify/score");
  DetectionReport report;
  report.scores.resize(unknown.domain_ids.size());
  // Rows are scored in parallel but each writes only its own slot, so the
  // report is identical for every thread count.
  util::parallel_for(unknown.domain_ids.size(), [&](std::size_t row) {
    const auto selected = apply_subset(unknown.dataset.row(row));
    const double malware_score = forest_ != nullptr ? forest_->predict_proba(selected)
                                                    : logistic_->predict_proba(selected);
    const auto d = unknown.domain_ids[row];
    report.scores[row] = {std::string(graph.domain_name(d)), d, malware_score};
  });
  timings_.classify_score_seconds = score_span.close();
  obs::Registry::instance().counter("seg_classify_rows_total").add(unknown.domain_ids.size());

  // Capture machine attribution so the report outlives the graph: CSR
  // offsets by serial prefix sum, refs filled in parallel (disjoint
  // ranges), names copied once per machine.
  report.machine_names.reserve(graph.machine_count());
  for (graph::MachineId m = 0; m < graph.machine_count(); ++m) {
    report.machine_names.emplace_back(graph.machine_name(m));
  }
  report.machine_offsets.assign(report.scores.size() + 1, 0);
  for (std::size_t i = 0; i < report.scores.size(); ++i) {
    report.machine_offsets[i + 1] =
        report.machine_offsets[i] +
        static_cast<std::uint32_t>(graph.machines_of(report.scores[i].id).size());
  }
  report.machine_refs.resize(report.machine_offsets.back());
  util::parallel_for(report.scores.size(), [&](std::size_t i) {
    std::uint32_t k = report.machine_offsets[i];
    for (const auto m : graph.machines_of(report.scores[i].id)) {
      report.machine_refs[k++] = m;
    }
  });
  return report;
}

double Segugio::pick_threshold(const std::vector<int>& labels,
                               const std::vector<double>& scores, double max_fpr) {
  const auto roc = ml::RocCurve::compute(labels, scores);
  return roc.threshold_for_fpr(max_fpr);
}

std::vector<double> Segugio::feature_importance() const {
  if (forest_ == nullptr || !forest_->is_trained()) {
    return {};
  }
  return forest_->feature_importance();
}

void Segugio::save(std::ostream& out) const {
  util::require(is_trained(), "Segugio::save: classifier not trained");
  util::write_format_header(out, "segugio-model", kModelFormatVersion);
  out << "segugio " << kModelFormatVersion << "\n";
  out << "activity_window " << config_.features.activity_window_days << "\n";
  out << "pdns_window " << config_.features.pdns_window_days << "\n";
  out << "pruning " << config_.pruning.inactive_machine_max_degree << " ";
  out.precision(17);
  out << config_.pruning.proxy_degree_percentile << " "
      << config_.pruning.min_domain_machines << " "
      << config_.pruning.popular_e2ld_fraction << "\n";
  out << "subset " << config_.feature_subset.size();
  for (const auto index : config_.feature_subset) {
    out << " " << index;
  }
  out << "\n";
  out << "prober " << (config_.prober_filter.has_value() ? 1 : 0);
  if (config_.prober_filter.has_value()) {
    out << " " << config_.prober_filter->min_blacklisted_domains << " "
        << config_.prober_filter->min_blacklisted_ratio;
  }
  out << "\n";
  if (forest_ != nullptr) {
    out << "classifier forest\n";
    forest_->save(out);
  } else {
    out << "classifier logistic\n";
    logistic_->save(out);
  }
}

Segugio Segugio::load(std::istream& in) {
  const int format_version = util::read_format_header(in, "segugio-model", kModelFormatVersion);
  std::string tag;
  int version = 0;
  in >> tag >> version;
  util::require_data(static_cast<bool>(in) && tag == "segugio" && version == format_version,
                     "Segugio::load: malformed header");
  SegugioConfig config;
  in >> tag >> config.features.activity_window_days;
  util::require_data(static_cast<bool>(in) && tag == "activity_window",
                     "Segugio::load: malformed activity window");
  in >> tag >> config.features.pdns_window_days;
  util::require_data(static_cast<bool>(in) && tag == "pdns_window",
                     "Segugio::load: malformed pDNS window");
  in >> tag >> config.pruning.inactive_machine_max_degree >>
      config.pruning.proxy_degree_percentile >> config.pruning.min_domain_machines >>
      config.pruning.popular_e2ld_fraction;
  util::require_data(static_cast<bool>(in) && tag == "pruning",
                     "Segugio::load: malformed pruning block");
  std::size_t subset_size = 0;
  in >> tag >> subset_size;
  util::require_data(static_cast<bool>(in) && tag == "subset",
                     "Segugio::load: malformed feature subset");
  // One index at a time, each checked: apply_subset() indexes a feature
  // vector with them.
  for (std::size_t i = 0; i < subset_size; ++i) {
    std::size_t index = 0;
    in >> index;
    util::require_data(static_cast<bool>(in) && index < features::kNumFeatures,
                       "Segugio::load: feature subset index out of range");
    config.feature_subset.push_back(index);
  }
  int prober_enabled = 0;
  in >> tag >> prober_enabled;
  util::require_data(static_cast<bool>(in) && tag == "prober",
                     "Segugio::load: malformed prober block");
  if (prober_enabled != 0) {
    graph::ProberFilterConfig filter;
    in >> filter.min_blacklisted_domains >> filter.min_blacklisted_ratio;
    config.prober_filter = filter;
  }
  std::string kind;
  in >> tag >> kind;
  util::require_data(static_cast<bool>(in) && tag == "classifier",
                     "Segugio::load: malformed classifier block");
  Segugio segugio(std::move(config));
  if (kind == "forest") {
    segugio.config_.classifier = ClassifierKind::kRandomForest;
    segugio.forest_ = std::make_unique<ml::RandomForest>(ml::RandomForest::load(in));
  } else if (kind == "logistic") {
    segugio.config_.classifier = ClassifierKind::kLogisticRegression;
    segugio.logistic_ =
        std::make_unique<ml::LogisticRegression>(ml::LogisticRegression::load(in));
  } else {
    throw util::ParseError("Segugio::load: unknown classifier kind '" + kind + "'");
  }
  // score() feeds the classifier the vector apply_subset() makes.
  const std::size_t arity = segugio.forest_ != nullptr ? segugio.forest_->num_features()
                                                       : segugio.logistic_->weights().size();
  const auto& subset = segugio.config_.feature_subset;
  util::require_data(arity == (subset.empty() ? features::kNumFeatures : subset.size()),
                     "Segugio::load: classifier arity differs from the feature subset's");
  return segugio;
}

}  // namespace seg::core
