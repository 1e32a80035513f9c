// Test-only reference for DecisionTree's split search.
//
// The sort-based CART builder that the rank-count search replaced, kept
// verbatim in its split logic: at every node it sorts the node's
// (value, label) pairs for each sampled feature and scans them. It draws
// from the RNG at the same points as DecisionTree, so for one config and
// one training sample both must build the same nodes bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "util/rng.h"

namespace seg::ml::testing {

/// One node, as DecisionTree::save writes it.
struct ReferenceNode {
  std::int32_t feature = -1;
  double threshold = 0.0;
  std::int32_t left = -1;
  std::int32_t right = -1;
  double prob = 0.0;
  double importance = 0.0;
};

class SortedReferenceTree {
 public:
  SortedReferenceTree(const Dataset& dataset, DecisionTreeConfig config)
      : dataset_(dataset), config_(config) {}

  /// Builds the tree over `indices` (duplicates allowed) and returns its
  /// nodes in DFS order.
  std::vector<ReferenceNode> build(std::span<const std::size_t> indices) {
    nodes_.clear();
    std::vector<std::size_t> work(indices.begin(), indices.end());
    util::Rng rng(config_.seed);
    build_node(work, 0, work.size(), 0, rng);
    return nodes_;
  }

  /// Splits whose midpoint threshold rounded up to the upper value b, so
  /// b's rows went left.
  std::size_t rounded_up_splits() const { return rounded_up_splits_; }
  /// Nodes left a leaf because the chosen threshold sent every row left
  /// (the midpoint rounded up to the node's largest value).
  std::size_t all_left_leaves() const { return all_left_leaves_; }

 private:
  std::int32_t build_node(std::vector<std::size_t>& indices, std::size_t begin,
                          std::size_t end, std::size_t depth, util::Rng& rng) {
    const std::size_t n = end - begin;
    std::size_t pos = 0;
    for (std::size_t i = begin; i < end; ++i) {
      pos += static_cast<std::size_t>(dataset_.label(indices[i]));
    }

    const auto node_index = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
    nodes_[node_index].prob = static_cast<double>(pos) / static_cast<double>(n);

    const bool pure = pos == 0 || pos == n;
    if (pure || depth >= config_.max_depth || n < config_.min_samples_split) {
      return node_index;
    }

    const std::size_t d = dataset_.num_features();
    const std::size_t mtry = config_.mtry == 0 ? d : std::min(config_.mtry, d);
    std::vector<std::size_t> candidates = rng.sample_without_replacement(d, mtry);

    const double parent_gini = gini(pos, n);
    double best_gain = 1e-12;
    std::size_t best_feature = d;
    double best_threshold = 0.0;
    double best_upper = 0.0;

    std::vector<std::pair<double, std::int8_t>> values;
    values.reserve(n);
    for (const auto f : candidates) {
      values.clear();
      for (std::size_t i = begin; i < end; ++i) {
        values.emplace_back(dataset_.value(indices[i], f),
                            static_cast<std::int8_t>(dataset_.label(indices[i])));
      }
      std::sort(values.begin(), values.end());
      if (values.front().first == values.back().first) {
        continue;
      }
      std::size_t left_pos = 0;
      for (std::size_t i = 0; i + 1 < n; ++i) {
        left_pos += static_cast<std::size_t>(values[i].second);
        if (values[i].first == values[i + 1].first) {
          continue;
        }
        const std::size_t left_n = i + 1;
        const std::size_t right_n = n - left_n;
        if (left_n < config_.min_samples_leaf || right_n < config_.min_samples_leaf) {
          continue;
        }
        const double child_gini =
            (static_cast<double>(left_n) * gini(left_pos, left_n) +
             static_cast<double>(right_n) * gini(pos - left_pos, right_n)) /
            static_cast<double>(n);
        const double gain = parent_gini - child_gini;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = f;
          best_threshold = values[i].first + (values[i + 1].first - values[i].first) / 2.0;
          best_upper = values[i + 1].first;
        }
      }
    }

    if (best_feature == d) {
      return node_index;
    }

    const auto mid_it = std::partition(
        indices.begin() + static_cast<std::ptrdiff_t>(begin),
        indices.begin() + static_cast<std::ptrdiff_t>(end),
        [&](std::size_t row) { return dataset_.value(row, best_feature) <= best_threshold; });
    const auto mid = static_cast<std::size_t>(mid_it - indices.begin());
    if (mid == begin || mid == end) {
      all_left_leaves_ += mid == end ? 1 : 0;
      return node_index;
    }
    rounded_up_splits_ += best_threshold == best_upper ? 1 : 0;

    nodes_[node_index].feature = static_cast<std::int32_t>(best_feature);
    nodes_[node_index].threshold = best_threshold;
    nodes_[node_index].importance = best_gain * static_cast<double>(n);

    const auto left = build_node(indices, begin, mid, depth + 1, rng);
    const auto right = build_node(indices, mid, end, depth + 1, rng);
    nodes_[node_index].left = left;
    nodes_[node_index].right = right;
    return node_index;
  }

  static double gini(std::size_t pos, std::size_t n) {
    if (n == 0) {
      return 0.0;
    }
    const double p = static_cast<double>(pos) / static_cast<double>(n);
    return 2.0 * p * (1.0 - p);
  }

  const Dataset& dataset_;
  DecisionTreeConfig config_;
  std::vector<ReferenceNode> nodes_;
  std::size_t rounded_up_splits_ = 0;
  std::size_t all_left_leaves_ = 0;
};

}  // namespace seg::ml::testing
