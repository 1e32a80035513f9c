// Evaluation protocols (Section IV).
//
// run_cross_day implements the train/test procedure of Section IV-A:
//
//   1. build the labeled, pruned test-day graph;
//   2. pick a stratified subset of its *known* benign and malware domains
//      as the test set;
//   3. build the train-day graph with the test malware names stripped from
//      its blacklist, train Segugio with the test names additionally
//      quarantined from the training set;
//   4. hide the test domains' labels in the test graph (relabeling
//      machines, Figure 5), measure their features as if unknown, score
//      them, and return per-domain outcomes.
//
// run_cross_family implements Section IV-C: folds partition *malware
// families* so every test domain belongs to a family never seen in
// training.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/segugio.h"
#include "ml/metrics.h"

namespace seg::core {

/// Everything an experiment needs. Pointers must outlive the call.
struct ExperimentInputs {
  const dns::DayTrace* train_trace = nullptr;
  const dns::DayTrace* test_trace = nullptr;
  const dns::PublicSuffixList* psl = nullptr;
  const dns::DomainActivityIndex* activity = nullptr;
  const dns::PassiveDnsDb* pdns = nullptr;
  graph::NameSet train_blacklist;  ///< C&C blacklist as of the train day
  graph::NameSet test_blacklist;   ///< C&C blacklist as of the test day
  graph::NameSet whitelist;        ///< popular-e2LD whitelist
};

/// One scored test domain with the context needed for later analysis.
struct TestOutcome {
  std::string name;
  std::string e2ld;
  int label = 0;  ///< 1 = malware ground truth, 0 = benign
  double score = 0.0;
  features::FeatureVector features{};  ///< as measured with hidden label
};

struct EvaluationResult {
  std::vector<TestOutcome> outcomes;
  double train_seconds = 0.0;
  double test_seconds = 0.0;
  graph::PruneStats train_prune;
  graph::PruneStats test_prune;
  PipelineTimings timings;

  std::vector<int> labels() const;
  std::vector<double> scores() const;
  ml::RocCurve roc() const;
  std::size_t test_malicious() const;
  std::size_t test_benign() const;

  /// Merges several results (e.g. cross-family folds) into one pooled
  /// result for a single ROC.
  static EvaluationResult merge(const std::vector<EvaluationResult>& results);
};

struct CrossDayOptions {
  /// Fraction of known domains (per class) held out for testing.
  double test_fraction = 0.5;
  std::uint64_t seed = 2013'04'02;
};

EvaluationResult run_cross_day(const ExperimentInputs& inputs, const SegugioConfig& config,
                               const CrossDayOptions& options = {});

struct CrossFamilyOptions {
  std::size_t folds = 5;
  std::uint64_t seed = 2013'04'15;
};

/// Per-fold results; pool with EvaluationResult::merge.
std::vector<EvaluationResult> run_cross_family(
    const ExperimentInputs& inputs, const SegugioConfig& config,
    const std::unordered_map<std::string, std::uint32_t>& family_of,
    const CrossFamilyOptions& options = {});

struct CrossValidationOptions {
  std::size_t folds = 5;
  std::uint64_t seed = 2013'04'23;
};

/// Stratified k-fold cross-validation *within* one day of traffic: each
/// fold's known domains are hidden (graph labels reset, machines
/// relabeled), the model trains on the remaining known domains of the same
/// graph, and the fold is scored as unknown. Pool with
/// EvaluationResult::merge.
std::vector<EvaluationResult> run_in_day_cross_validation(
    const dns::DayTrace& trace, const dns::PublicSuffixList& psl,
    const graph::NameSet& blacklist, const graph::NameSet& whitelist,
    const dns::DomainActivityIndex& activity, const dns::PassiveDnsDb& pdns,
    const SegugioConfig& config, const CrossValidationOptions& options = {});

}  // namespace seg::core
