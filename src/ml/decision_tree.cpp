#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <string>
#include <utility>

#include "util/require.h"

namespace seg::ml {

namespace {

double gini(std::size_t pos, std::size_t n) {
  if (n == 0) {
    return 0.0;
  }
  const double p = static_cast<double>(pos) / static_cast<double>(n);
  return 2.0 * p * (1.0 - p);
}

// The best split of one node seen so far.
struct Split {
  std::size_t n = 0;    // node rows
  std::size_t pos = 0;  // node positive rows
  double parent_gini = 0.0;
  std::size_t min_samples_leaf = 1;

  double gain = 1e-12;  // require a strictly positive gain
  std::size_t feature = 0;
  bool found = false;
  double threshold = 0.0;

  // Scores splitting the node between consecutive present values a < b of
  // `f`: the `left_n` rows valued <= a, `left_pos` of them positive, go
  // left. Candidates arrive in ascending value order per feature and in
  // sampled order across features, and only a strictly larger gain
  // replaces the best, so ties go to the first candidate.
  void consider(std::size_t f, std::size_t left_n, std::size_t left_pos, double a, double b) {
    const std::size_t right_n = n - left_n;
    if (left_n < min_samples_leaf || right_n < min_samples_leaf) {
      return;
    }
    const double child_gini =
        (static_cast<double>(left_n) * gini(left_pos, left_n) +
         static_cast<double>(right_n) * gini(pos - left_pos, right_n)) /
        static_cast<double>(n);
    const double split_gain = parent_gini - child_gini;
    if (split_gain > gain) {
      gain = split_gain;
      feature = f;
      found = true;
      threshold = a + (b - a) / 2.0;
    }
  }
};

// Offers `best` every split of `rows` (row << 1 | label) on `feature`,
// from per-rank counts. `count` and `positives` are all zero on entry and
// on return.
void search_bins(const FeatureRanks& ranks, std::size_t feature,
                 std::span<const std::size_t> rows, std::vector<std::size_t>& count,
                 std::vector<std::size_t>& positives, Split& best) {
  const auto column = ranks.ranks(feature);
  std::uint32_t lowest = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t highest = 0;
  for (const auto row : rows) {
    const auto rank = column[row >> 1];
    ++count[rank];
    positives[rank] += row & 1;
    lowest = std::min(lowest, rank);
    highest = std::max(highest, rank);
  }
  const auto values = ranks.values(feature);
  std::size_t left_n = 0;
  std::size_t left_pos = 0;
  std::uint32_t previous = lowest;
  for (std::uint32_t rank = lowest; rank <= highest; ++rank) {
    if (count[rank] == 0) {
      continue;
    }
    if (left_n > 0) {
      best.consider(feature, left_n, left_pos, values[previous], values[rank]);
    }
    left_n += count[rank];
    left_pos += positives[rank];
    count[rank] = 0;
    positives[rank] = 0;
    previous = rank;
  }
}

}  // namespace

FeatureRanks FeatureRanks::build(const Dataset& dataset) {
  const std::size_t n = dataset.num_rows();
  const std::size_t d = dataset.num_features();
  FeatureRanks out;
  out.num_rows_ = n;
  out.ranks_.resize(n * d);
  out.value_offsets_.reserve(d + 1);
  std::vector<std::pair<double, std::size_t>> sorted(n);  // (value, row)
  for (std::size_t f = 0; f < d; ++f) {
    bool has_nan = false;
    for (std::size_t i = 0; i < n; ++i) {
      sorted[i] = {dataset.value(i, f), i};
      has_nan |= std::isnan(sorted[i].first);
    }
    util::require(!has_nan, "FeatureRanks::build: NaN feature value");
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    // Values compare with ==, so -0.0 and 0.0 get one rank, as they are one
    // value to every split.
    auto* ranks = out.ranks_.data() + f * n;
    const std::size_t first = out.values_.size();
    for (const auto& [value, row] : sorted) {
      if (out.values_.size() == first || value != out.values_.back()) {
        out.values_.push_back(value);
      }
      ranks[row] = static_cast<std::uint32_t>(out.values_.size() - first - 1);
    }
    const std::size_t distinct = out.values_.size() - first;
    util::require(distinct <= std::numeric_limits<std::uint32_t>::max(),
                  "FeatureRanks::build: too many distinct values for a 32-bit rank");
    out.value_offsets_.push_back(out.values_.size());
    out.max_distinct_ = std::max(out.max_distinct_, distinct);
  }
  return out;
}

// One tree's working memory, sized once per tree: no node allocates.
struct DecisionTree::Scratch {
  // The training rows as row << 1 | label; each node owns a contiguous
  // range, partitioned in place into its children's ranges.
  std::vector<std::size_t> rows;
  // Rows and positive rows per rank; all zero between walks.
  std::vector<std::size_t> count;
  std::vector<std::size_t> positives;
};

void DecisionTree::train(const Dataset& dataset) {
  std::vector<std::size_t> indices(dataset.num_rows());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  train_on(dataset, FeatureRanks::build(dataset), indices);
}

void DecisionTree::train_on(const Dataset& dataset, const FeatureRanks& ranks,
                            std::span<const std::size_t> indices) {
  util::require(!indices.empty(), "DecisionTree::train_on: empty training set");
  util::require(ranks.num_rows() == dataset.num_rows() &&
                    ranks.num_features() == dataset.num_features(),
                "DecisionTree::train_on: ranks of another dataset");
  nodes_.clear();
  num_features_ = dataset.num_features();
  Scratch scratch;
  scratch.rows.reserve(indices.size());
  for (const auto row : indices) {
    scratch.rows.push_back(row << 1 | static_cast<std::size_t>(dataset.label(row)));
  }
  scratch.count.assign(ranks.max_distinct(), 0);
  scratch.positives.assign(ranks.max_distinct(), 0);
  util::Rng rng(config_.seed);
  build_node(ranks, scratch, 0, scratch.rows.size(), 0, rng);
}

std::int32_t DecisionTree::build_node(const FeatureRanks& ranks, Scratch& scratch,
                                      std::size_t begin, std::size_t end, std::size_t depth,
                                      util::Rng& rng) {
  const std::span<std::size_t> rows(scratch.rows.data() + begin, end - begin);
  const std::size_t n = rows.size();
  std::size_t pos = 0;
  for (const auto row : rows) {
    pos += row & 1;
  }

  const auto node_index = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_index].prob = static_cast<double>(pos) / static_cast<double>(n);

  const bool pure = pos == 0 || pos == n;
  if (pure || depth >= config_.max_depth || n < 2) {
    return node_index;  // leaf
  }

  // Candidate features for this split.
  const std::size_t d = num_features_;
  const std::size_t mtry = config_.mtry == 0 ? d : std::min(config_.mtry, d);
  const std::vector<std::size_t> candidates = rng.sample_without_replacement(d, mtry);

  Split best{n, pos, gini(pos, n), config_.min_samples_leaf};
  for (const auto f : candidates) {
    search_bins(ranks, f, rows, scratch.count, scratch.positives, best);
  }
  if (!best.found) {
    return node_index;  // no useful split among the sampled features
  }

  // A row goes left exactly when its value is <= the threshold. The values
  // are sorted, so those are the ranks below `cut`; when the midpoint
  // rounds up to b, b's rank is below it too.
  const auto values = ranks.values(best.feature);
  const auto cut = static_cast<std::uint32_t>(
      std::partition_point(values.begin(), values.end(),
                           [&](double value) { return value <= best.threshold; }) -
      values.begin());
  const auto column = ranks.ranks(best.feature);
  const auto mid_it = std::partition(rows.begin(), rows.end(),
                                     [&](std::size_t row) { return column[row >> 1] < cut; });
  const auto mid = begin + static_cast<std::size_t>(mid_it - rows.begin());
  // When b is the node's largest value and the midpoint rounds up to it,
  // every row goes left: the node stays a leaf.
  if (mid == begin || mid == end) {
    return node_index;
  }

  nodes_[node_index].feature = static_cast<std::int32_t>(best.feature);
  nodes_[node_index].threshold = best.threshold;
  nodes_[node_index].importance = best.gain * static_cast<double>(n);

  const auto left = build_node(ranks, scratch, begin, mid, depth + 1, rng);
  const auto right = build_node(ranks, scratch, mid, end, depth + 1, rng);
  nodes_[node_index].left = left;
  nodes_[node_index].right = right;
  return node_index;
}

double DecisionTree::predict_proba(std::span<const double> features) const {
  util::require(is_trained(), "DecisionTree::predict_proba: not trained");
  util::require(features.size() == num_features_,
                "DecisionTree::predict_proba: feature arity mismatch");
  std::int32_t node = 0;
  while (nodes_[node].feature >= 0) {
    node = features[static_cast<std::size_t>(nodes_[node].feature)] <= nodes_[node].threshold
               ? nodes_[node].left
               : nodes_[node].right;
  }
  return nodes_[node].prob;
}

std::size_t DecisionTree::depth() const {
  if (nodes_.empty()) {
    return 0;
  }
  // Iterative depth computation over the implicit tree.
  std::vector<std::pair<std::int32_t, std::size_t>> stack{{0, 1}};
  std::size_t max_depth = 0;
  while (!stack.empty()) {
    const auto [node, depth] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, depth);
    if (nodes_[node].feature >= 0) {
      stack.emplace_back(nodes_[node].left, depth + 1);
      stack.emplace_back(nodes_[node].right, depth + 1);
    }
  }
  return max_depth;
}

void DecisionTree::add_feature_importance(std::span<double> importance) const {
  util::require(importance.size() == num_features_,
                "DecisionTree::add_feature_importance: arity mismatch");
  for (const auto& node : nodes_) {
    if (node.feature >= 0) {
      importance[static_cast<std::size_t>(node.feature)] += node.importance;
    }
  }
}

void DecisionTree::save(std::ostream& out) const {
  out << "tree " << num_features_ << " " << nodes_.size() << "\n";
  out.precision(17);
  for (const auto& node : nodes_) {
    out << node.feature << " " << node.threshold << " " << node.left << " " << node.right
        << " " << node.prob << " " << node.importance << "\n";
  }
}

DecisionTree DecisionTree::load(std::istream& in) {
  std::string tag;
  std::size_t num_features = 0;
  std::size_t num_nodes = 0;
  in >> tag >> num_features >> num_nodes;
  util::require_data(static_cast<bool>(in) && tag == "tree" && num_nodes > 0,
                     "DecisionTree::load: malformed header");
  DecisionTree tree;
  tree.num_features_ = num_features;
  // One node at a time: a count larger than the stream ends in the
  // truncation error, not in a huge allocation.
  for (std::size_t i = 0; i < num_nodes; ++i) {
    Node node;
    in >> node.feature >> node.threshold >> node.left >> node.right >> node.prob >>
        node.importance;
    util::require_data(static_cast<bool>(in), "DecisionTree::load: truncated node list");
    if (node.feature != -1) {
      util::require_data(
          node.feature >= 0 && static_cast<std::size_t>(node.feature) < num_features,
          "DecisionTree::load: split feature out of range");
      // Children come after their parent, so every path ends at a leaf.
      const auto after = [&](std::int32_t child) {
        return child >= 0 && static_cast<std::size_t>(child) > i &&
               static_cast<std::size_t>(child) < num_nodes;
      };
      util::require_data(after(node.left) && after(node.right),
                         "DecisionTree::load: child index out of order");
    }
    tree.nodes_.push_back(node);
  }
  return tree;
}

}  // namespace seg::ml
