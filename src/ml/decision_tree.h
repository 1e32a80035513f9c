// CART-style binary classification tree, fit exactly from value ranks.
//
// Splits minimize weighted Gini impurity; leaves store the positive-class
// fraction of their training samples. Supports per-split feature
// subsampling (mtry) so it can serve as the base learner of the random
// forest (Breiman 2001, the paper's reference [9]).
//
// The split search never sorts feature values. `FeatureRanks` maps every
// value of a feature to its rank among the feature's distinct values once
// per fit; a node then counts its rows and positives per rank and walks the
// rank bins between its lowest and highest rank in ascending order, which
// visits the same candidate splits in the same order as a sort of the
// node's values would. A split between consecutive present values a < b
// has the threshold a + (b - a) / 2.0, and a row goes left exactly when its
// value is <= that threshold, also when the midpoint rounds up to b.
// docs/performance.md ("Forest fit") has the measurements.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "ml/classifier.h"
#include "ml/dataset.h"
#include "util/rng.h"

namespace seg::ml {

struct DecisionTreeConfig {
  std::size_t max_depth = 30;
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Number of candidate features per split; 0 means all features.
  std::size_t mtry = 0;
  std::uint64_t seed = 1;
};

/// Per feature of a dataset: its sorted distinct values (compared with ==,
/// so -0.0 and 0.0 share one) and the rank of every row's value among them,
/// stored feature-major. Built once per fit and read by every tree.
class FeatureRanks {
 public:
  /// Requires no NaN values, and few enough distinct values per feature
  /// that every rank fits a uint32.
  static FeatureRanks build(const Dataset& dataset);

  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_features() const { return value_offsets_.size() - 1; }

  /// The distinct values of `feature`, ascending.
  std::span<const double> values(std::size_t feature) const {
    return {values_.data() + value_offsets_[feature],
            value_offsets_[feature + 1] - value_offsets_[feature]};
  }

  /// Row i's rank in values(feature), for every row.
  std::span<const std::uint32_t> ranks(std::size_t feature) const {
    return {ranks_.data() + feature * num_rows_, num_rows_};
  }

  /// The largest distinct-value count of any feature.
  std::size_t max_distinct() const { return max_distinct_; }

 private:
  std::size_t num_rows_ = 0;
  std::size_t max_distinct_ = 0;
  std::vector<std::uint32_t> ranks_;
  std::vector<double> values_;
  std::vector<std::size_t> value_offsets_{0};
};

class DecisionTree final : public Classifier {
 public:
  explicit DecisionTree(DecisionTreeConfig config = {}) : config_(config) {}

  void train(const Dataset& dataset) override;

  /// Trains on a subset of rows (duplicates allowed — bootstrap samples).
  /// `ranks` must be FeatureRanks::build(dataset).
  void train_on(const Dataset& dataset, const FeatureRanks& ranks,
                std::span<const std::size_t> indices);

  double predict_proba(std::span<const double> features) const override;
  bool is_trained() const override { return !nodes_.empty(); }

  std::size_t num_features() const { return num_features_; }
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t depth() const;

  /// Accumulates this tree's impurity-decrease importance per feature into
  /// `importance` (size num_features).
  void add_feature_importance(std::span<double> importance) const;

  void save(std::ostream& out) const;
  /// Throws util::ParseError unless every node is a leaf (feature -1) or
  /// splits on a feature below the tree's arity with both children after
  /// it, so a loaded tree always traverses to a leaf in bounds.
  static DecisionTree load(std::istream& in);

 private:
  struct Node {
    // Internal node: feature >= 0; leaf: feature == -1 and prob valid.
    std::int32_t feature = -1;
    double threshold = 0.0;
    std::int32_t left = -1;   // index of the <= threshold child
    std::int32_t right = -1;  // index of the > threshold child
    double prob = 0.0;        // leaf: positive fraction
    double importance = 0.0;  // internal: impurity decrease * sample weight
  };

  struct Scratch;  // one tree's work buffers (decision_tree.cpp)

  std::int32_t build_node(const FeatureRanks& ranks, Scratch& scratch, std::size_t begin,
                          std::size_t end, std::size_t depth, util::Rng& rng);

  DecisionTreeConfig config_;
  std::vector<Node> nodes_;
  std::size_t num_features_ = 0;
};

}  // namespace seg::ml
