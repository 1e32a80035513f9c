#include "core/experiment.h"

#include <algorithm>

#include "graph/labeling.h"
#include "util/require.h"
#include "util/rng.h"
#include "util/obs/trace.h"

namespace seg::core {

std::vector<int> EvaluationResult::labels() const {
  std::vector<int> out;
  out.reserve(outcomes.size());
  for (const auto& outcome : outcomes) {
    out.push_back(outcome.label);
  }
  return out;
}

std::vector<double> EvaluationResult::scores() const {
  std::vector<double> out;
  out.reserve(outcomes.size());
  for (const auto& outcome : outcomes) {
    out.push_back(outcome.score);
  }
  return out;
}

ml::RocCurve EvaluationResult::roc() const {
  return ml::RocCurve::compute(labels(), scores());
}

std::size_t EvaluationResult::test_malicious() const {
  return static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [](const TestOutcome& o) { return o.label == 1; }));
}

std::size_t EvaluationResult::test_benign() const {
  return outcomes.size() - test_malicious();
}

EvaluationResult EvaluationResult::merge(const std::vector<EvaluationResult>& results) {
  EvaluationResult merged;
  for (const auto& result : results) {
    merged.outcomes.insert(merged.outcomes.end(), result.outcomes.begin(),
                           result.outcomes.end());
    merged.train_seconds += result.train_seconds;
    merged.test_seconds += result.test_seconds;
  }
  if (!results.empty()) {
    merged.train_prune = results.front().train_prune;
    merged.test_prune = results.front().test_prune;
    merged.timings = results.front().timings;
  }
  return merged;
}

namespace {

// Stratified random selection of test domains from the known domains of a
// labeled graph. Returns (domain, label) pairs and the name quarantine set.
struct TestSelection {
  std::vector<std::pair<graph::DomainId, int>> rows;
  graph::NameSet names;
};

TestSelection select_stratified_test_set(const graph::GraphView& graph,
                                         double malware_fraction, double benign_fraction,
                                         util::Rng& rng) {
  std::vector<graph::DomainId> malware_ids;
  std::vector<graph::DomainId> benign_ids;
  for (graph::DomainId d = 0; d < graph.domain_count(); ++d) {
    switch (graph.domain_label(d)) {
      case graph::Label::kMalware:
        malware_ids.push_back(d);
        break;
      case graph::Label::kBenign:
        benign_ids.push_back(d);
        break;
      case graph::Label::kUnknown:
        break;
    }
  }
  TestSelection selection;
  const auto take = [&](std::vector<graph::DomainId>& ids, double fraction, int label) {
    rng.shuffle(std::span<graph::DomainId>(ids));
    const auto n = static_cast<std::size_t>(fraction * static_cast<double>(ids.size()) + 0.5);
    for (std::size_t i = 0; i < n; ++i) {
      selection.rows.emplace_back(ids[i], label);
      selection.names.insert(graph.domain_name(ids[i]));
    }
  };
  take(malware_ids, malware_fraction, 1);
  take(benign_ids, benign_fraction, 0);
  return selection;
}

// Shared tail of every protocol: train on the train-day trace with the test
// names quarantined, hide the test labels in the (already prepared) test
// graph, and score the test rows.
EvaluationResult evaluate_with_test_set(const ExperimentInputs& inputs,
                                        const SegugioConfig& config,
                                        const graph::GraphView& test_graph,
                                        const graph::PruneStats& test_prune,
                                        const TestSelection& selection,
                                        const graph::NameSet& train_blacklist) {
  EvaluationResult result;
  result.test_prune = test_prune;

  // --- Training.
  obs::Span train_span("experiment/train");
  auto train_prep = Segugio::prepare_graph(*inputs.train_trace, *inputs.psl, train_blacklist,
                                           inputs.whitelist, config.prepare_options());
  result.train_prune = train_prep.prune_stats;
  SegugioConfig local = config;
  local.training.exclude = &selection.names;
  Segugio segugio(local);
  segugio.train(train_prep.graph, *inputs.activity, *inputs.pdns);
  result.train_seconds = train_span.close();

  // --- Testing: hide all test-domain labels at once, relabel machines.
  obs::Span test_span("experiment/test");
  auto hidden = graph::copy_graph(test_graph);  // the caller may reuse test_graph
  for (const auto& [d, label] : selection.rows) {
    hidden.set_domain_label(d, graph::Label::kUnknown);
  }
  graph::relabel_machines(hidden);

  const features::FeatureExtractor extractor(hidden, *inputs.activity, *inputs.pdns,
                                             local.features);
  result.outcomes.reserve(selection.rows.size());
  for (const auto& [d, label] : selection.rows) {
    TestOutcome outcome;
    outcome.name = hidden.domain_name(d);
    outcome.e2ld = hidden.e2ld_name(hidden.domain_e2ld(d));
    outcome.label = label;
    outcome.features = extractor.extract(d);
    outcome.score = segugio.score(outcome.features);
    result.outcomes.push_back(std::move(outcome));
  }
  result.test_seconds = test_span.close();
  result.timings = segugio.timings();
  return result;
}

}  // namespace

EvaluationResult run_cross_day(const ExperimentInputs& inputs, const SegugioConfig& config,
                               const CrossDayOptions& options) {
  util::require(inputs.train_trace != nullptr && inputs.test_trace != nullptr &&
                    inputs.psl != nullptr && inputs.activity != nullptr &&
                    inputs.pdns != nullptr,
                "run_cross_day: missing experiment inputs");
  util::require(options.test_fraction > 0.0 && options.test_fraction < 1.0,
                "run_cross_day: test_fraction must be in (0, 1)");

  const auto test_prep = Segugio::prepare_graph(*inputs.test_trace, *inputs.psl,
                                                inputs.test_blacklist, inputs.whitelist,
                                                config.prepare_options());
  const auto& test_graph = test_prep.graph;

  util::Rng rng(options.seed);
  const auto selection = select_stratified_test_set(test_graph, options.test_fraction,
                                                    options.test_fraction, rng);
  util::require(!selection.rows.empty(), "run_cross_day: empty test selection");

  // Strip the test malware names from the training blacklist so their
  // ground truth cannot leak into training-day machine labels.
  graph::NameSet filtered;
  for (const auto& name : inputs.train_blacklist) {
    if (!selection.names.contains(name)) {
      filtered.insert(name);
    }
  }
  return evaluate_with_test_set(inputs, config, test_graph, test_prep.prune_stats, selection,
                                filtered);
}

std::vector<EvaluationResult> run_cross_family(
    const ExperimentInputs& inputs, const SegugioConfig& config,
    const std::unordered_map<std::string, std::uint32_t>& family_of,
    const CrossFamilyOptions& options) {
  util::require(options.folds >= 2, "run_cross_family: need at least 2 folds");

  const auto test_prep = Segugio::prepare_graph(*inputs.test_trace, *inputs.psl,
                                                inputs.test_blacklist, inputs.whitelist,
                                                config.prepare_options());
  const auto& test_graph = test_prep.graph;

  // Balanced family folds.
  std::vector<std::uint32_t> families;
  {
    std::vector<std::uint32_t> all;
    for (const auto& entry : family_of) {
      all.push_back(entry.second);
    }
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    families = std::move(all);
  }
  util::require(families.size() >= options.folds,
                "run_cross_family: fewer families than folds");
  util::Rng rng(options.seed);
  rng.shuffle(std::span<std::uint32_t>(families));

  std::vector<EvaluationResult> results;
  for (std::size_t fold = 0; fold < options.folds; ++fold) {
    const auto family_in_fold = [&](std::uint32_t family) {
      for (std::size_t i = fold; i < families.size(); i += options.folds) {
        if (families[i] == family) {
          return true;
        }
      }
      return false;
    };

    // Test selection: half the benign domains at random (families only
    // exist for malware); malware = blacklisted domains of the fold's
    // families that appear in the test graph.
    constexpr double kBenignTestFraction = 0.5;
    util::Rng fold_rng = rng.fork(fold + 1);
    TestSelection selection =
        select_stratified_test_set(test_graph, 0.0, kBenignTestFraction, fold_rng);
    for (graph::DomainId d = 0; d < test_graph.domain_count(); ++d) {
      if (test_graph.domain_label(d) != graph::Label::kMalware) {
        continue;
      }
      const auto it = family_of.find(std::string(test_graph.domain_name(d)));
      if (it != family_of.end() && family_in_fold(it->second)) {
        selection.rows.emplace_back(d, 1);
        selection.names.insert(test_graph.domain_name(d));
      }
    }

    // Training blacklist: remove *every* domain of the fold's families, not
    // just the ones in the test graph, so the malware families represented
    // in the test set are entirely unseen in training.
    graph::NameSet filtered;
    for (const auto& name : inputs.train_blacklist) {
      const auto it = family_of.find(name);
      if (it != family_of.end() && family_in_fold(it->second)) {
        continue;
      }
      filtered.insert(name);
    }
    results.push_back(evaluate_with_test_set(inputs, config, test_graph,
                                             test_prep.prune_stats, selection, filtered));
  }
  return results;
}

std::vector<EvaluationResult> run_in_day_cross_validation(
    const dns::DayTrace& trace, const dns::PublicSuffixList& psl,
    const graph::NameSet& blacklist, const graph::NameSet& whitelist,
    const dns::DomainActivityIndex& activity, const dns::PassiveDnsDb& pdns,
    const SegugioConfig& config, const CrossValidationOptions& options) {
  util::require(options.folds >= 2, "run_in_day_cross_validation: need >= 2 folds");

  const auto prep = Segugio::prepare_graph(trace, psl, blacklist, whitelist,
                                           config.prepare_options());
  const auto& graph = prep.graph;
  const auto& prune_stats = prep.prune_stats;

  // Stratified fold assignment over the known domains.
  std::vector<graph::DomainId> malware_ids;
  std::vector<graph::DomainId> benign_ids;
  for (graph::DomainId d = 0; d < graph.domain_count(); ++d) {
    switch (graph.domain_label(d)) {
      case graph::Label::kMalware:
        malware_ids.push_back(d);
        break;
      case graph::Label::kBenign:
        benign_ids.push_back(d);
        break;
      case graph::Label::kUnknown:
        break;
    }
  }
  util::require(malware_ids.size() >= options.folds && benign_ids.size() >= options.folds,
                "run_in_day_cross_validation: too few known domains for the fold count");
  util::Rng rng(options.seed);
  rng.shuffle(std::span<graph::DomainId>(malware_ids));
  rng.shuffle(std::span<graph::DomainId>(benign_ids));

  std::vector<EvaluationResult> results;
  for (std::size_t fold = 0; fold < options.folds; ++fold) {
    // Hide this fold's labels; the rest stays known for training.
    auto hidden = graph::copy_graph(graph);
    std::vector<std::pair<graph::DomainId, int>> rows;
    for (std::size_t i = fold; i < malware_ids.size(); i += options.folds) {
      rows.emplace_back(malware_ids[i], 1);
      hidden.set_domain_label(malware_ids[i], graph::Label::kUnknown);
    }
    for (std::size_t i = fold; i < benign_ids.size(); i += options.folds) {
      rows.emplace_back(benign_ids[i], 0);
      hidden.set_domain_label(benign_ids[i], graph::Label::kUnknown);
    }
    graph::relabel_machines(hidden);

    obs::Span fold_train_span("experiment/fold_train");
    Segugio segugio(config);
    segugio.train(hidden, activity, pdns);

    EvaluationResult result;
    result.train_prune = prune_stats;
    result.test_prune = prune_stats;
    result.train_seconds = fold_train_span.close();
    obs::Span fold_test_span("experiment/fold_test");
    const features::FeatureExtractor extractor(hidden, activity, pdns, config.features);
    for (const auto& [d, label] : rows) {
      TestOutcome outcome;
      outcome.name = hidden.domain_name(d);
      outcome.e2ld = hidden.e2ld_name(hidden.domain_e2ld(d));
      outcome.label = label;
      outcome.features = extractor.extract(d);
      outcome.score = segugio.score(outcome.features);
      result.outcomes.push_back(std::move(outcome));
    }
    result.test_seconds = fold_test_span.close();
    result.timings = segugio.timings();
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace seg::core
