// Random Forest classifier (Breiman 2001; the paper's default classifier).
//
// Bagged CART trees with per-split feature subsampling. Scores are the mean
// of per-tree leaf probabilities, giving the smooth "malware score" the
// paper thresholds for its TP/FP trade-offs. Training parallelizes across
// trees; everything is deterministic given the seed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "ml/decision_tree.h"

namespace seg::ml {

struct RandomForestConfig {
  std::size_t num_trees = 100;
  std::size_t max_depth = 30;
  std::size_t min_samples_leaf = 1;
  /// Features per split; 0 means floor(sqrt(num_features)).
  std::size_t mtry = 0;
  /// Bootstrap sample size as a fraction of the training set.
  double sample_fraction = 1.0;
  /// Stratified bootstrap: sample each class separately (preserving the
  /// class ratio, but guaranteeing every tree sees at least one sample of
  /// each class). Essential when positives are very rare, as with a
  /// handful of blacklisted domains against hundreds of thousands of
  /// whitelisted ones.
  bool stratified_bootstrap = false;
  std::uint64_t seed = 42;
  /// Worker threads for training; 0 = hardware concurrency.
  std::size_t num_threads = 0;
  /// Track out-of-bag score estimates during training.
  bool compute_oob = false;
};

class RandomForest final : public Classifier {
 public:
  explicit RandomForest(RandomForestConfig config = {}) : config_(config) {}

  void train(const Dataset& dataset) override;
  double predict_proba(std::span<const double> features) const override;
  bool is_trained() const override { return !trees_.empty(); }

  std::size_t tree_count() const { return trees_.size(); }
  std::size_t num_features() const { return num_features_; }

  /// Mean-decrease-impurity feature importance, normalized to sum to 1.
  /// Requires training.
  std::vector<double> feature_importance() const;

  /// Out-of-bag error estimate (fraction misclassified at threshold 0.5).
  /// Requires config.compute_oob and training.
  double oob_error() const;

  void save(std::ostream& out) const;
  static RandomForest load(std::istream& in);

 private:
  RandomForestConfig config_;
  std::vector<DecisionTree> trees_;
  std::size_t num_features_ = 0;
  double oob_error_ = -1.0;
};

}  // namespace seg::ml
