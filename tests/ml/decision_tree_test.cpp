#include "ml/decision_tree.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <sstream>
#include <string>

#include "sorted_reference_tree.h"
#include "util/require.h"
#include "util/rng.h"

namespace seg::ml {
namespace {

// Linearly separable dataset: label = f0 > 0.5.
Dataset separable(std::size_t n, util::Rng& rng) {
  Dataset d({"f0", "f1"});
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.next_double();
    const double noise = rng.next_double();
    const double row[] = {x, noise};
    d.add_row(row, x > 0.5 ? 1 : 0);
  }
  return d;
}

// XOR-style dataset: label = (f0 > 0.5) != (f1 > 0.5). Needs depth >= 2.
Dataset xor_data(std::size_t n, util::Rng& rng) {
  Dataset d({"f0", "f1"});
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.next_double();
    const double b = rng.next_double();
    const double row[] = {a, b};
    d.add_row(row, (a > 0.5) != (b > 0.5) ? 1 : 0);
  }
  return d;
}

TEST(DecisionTreeTest, FitsSeparableDataPerfectly) {
  util::Rng rng(1);
  const auto data = separable(500, rng);
  DecisionTree tree;
  tree.train(data);
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    const double p = tree.predict_proba(data.row(i));
    EXPECT_EQ(p >= 0.5 ? 1 : 0, data.label(i));
  }
}

TEST(DecisionTreeTest, LearnsXor) {
  util::Rng rng(2);
  const auto data = xor_data(1000, rng);
  DecisionTree tree;
  tree.train(data);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    correct += (tree.predict_proba(data.row(i)) >= 0.5 ? 1 : 0) == data.label(i) ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(data.num_rows()), 0.98);
  EXPECT_GE(tree.depth(), 2u);
}

TEST(DecisionTreeTest, PureNodeBecomesLeafImmediately) {
  Dataset d({"f0"});
  for (int i = 0; i < 10; ++i) {
    const double row[] = {static_cast<double>(i)};
    d.add_row(row, 1);
  }
  // All-positive data is rejected upstream by RandomForest but the tree
  // itself should happily produce a single pure leaf.
  DecisionTree tree;
  tree.train(d);
  EXPECT_EQ(tree.node_count(), 1u);
  const double probe[] = {3.0};
  EXPECT_DOUBLE_EQ(tree.predict_proba(probe), 1.0);
}

TEST(DecisionTreeTest, MaxDepthLimitsTree) {
  util::Rng rng(3);
  const auto data = xor_data(500, rng);
  DecisionTreeConfig config;
  config.max_depth = 1;  // a stump cannot learn XOR
  DecisionTree stump(config);
  stump.train(data);
  EXPECT_LE(stump.depth(), 2u);  // root + leaves
}

TEST(DecisionTreeTest, MinSamplesLeafRespected) {
  util::Rng rng(4);
  const auto data = separable(200, rng);
  DecisionTreeConfig config;
  config.min_samples_leaf = 50;
  DecisionTree tree(config);
  tree.train(data);
  // With 200 samples and min leaf 50, at most 4 leaves => at most 7 nodes.
  EXPECT_LE(tree.node_count(), 7u);
}

TEST(DecisionTreeTest, ConstantFeaturesYieldSingleLeaf) {
  Dataset d({"f0"});
  for (int i = 0; i < 20; ++i) {
    const double row[] = {1.0};
    d.add_row(row, i % 2);
  }
  DecisionTree tree;
  tree.train(d);
  EXPECT_EQ(tree.node_count(), 1u);
  const double probe[] = {1.0};
  EXPECT_NEAR(tree.predict_proba(probe), 0.5, 1e-9);
}

TEST(DecisionTreeTest, TrainOnSubsetUsesOnlyThoseRows) {
  Dataset d({"f0"});
  for (int i = 0; i < 10; ++i) {
    const double row[] = {static_cast<double>(i)};
    d.add_row(row, i < 5 ? 0 : 1);
  }
  // Subset where the labels are flipped relative to the full data:
  // only rows {0, 9}, both with extreme values.
  const std::size_t indices[] = {0, 9};
  DecisionTree tree;
  tree.train_on(d, FeatureRanks::build(d), indices);
  const double low[] = {0.0};
  const double high[] = {9.0};
  EXPECT_LT(tree.predict_proba(low), 0.5);
  EXPECT_GT(tree.predict_proba(high), 0.5);
}

TEST(DecisionTreeTest, DeterministicForSameSeed) {
  util::Rng rng(5);
  const auto data = xor_data(300, rng);
  DecisionTreeConfig config;
  config.mtry = 1;
  config.seed = 77;
  DecisionTree t1(config);
  DecisionTree t2(config);
  t1.train(data);
  t2.train(data);
  EXPECT_EQ(t1.node_count(), t2.node_count());
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(t1.predict_proba(data.row(i)), t2.predict_proba(data.row(i)));
  }
}

TEST(DecisionTreeTest, UntrainedPredictThrows) {
  DecisionTree tree;
  const double probe[] = {0.0};
  EXPECT_THROW(tree.predict_proba(probe), util::PreconditionError);
}

TEST(DecisionTreeTest, ArityMismatchThrows) {
  util::Rng rng(6);
  const auto data = separable(50, rng);
  DecisionTree tree;
  tree.train(data);
  const double probe[] = {0.1, 0.2, 0.3};
  EXPECT_THROW(tree.predict_proba(probe), util::PreconditionError);
}

TEST(DecisionTreeTest, EmptyTrainingSetThrows) {
  Dataset d({"f0"});
  DecisionTree tree;
  EXPECT_THROW(tree.train(d), util::PreconditionError);
}

TEST(DecisionTreeTest, FeatureImportanceConcentratesOnInformativeFeature) {
  util::Rng rng(7);
  const auto data = separable(500, rng);  // f0 informative, f1 noise
  DecisionTree tree;
  tree.train(data);
  std::vector<double> importance(2, 0.0);
  tree.add_feature_importance(importance);
  EXPECT_GT(importance[0], importance[1]);
  EXPECT_GT(importance[0], 0.0);
}

TEST(DecisionTreeTest, SaveLoadRoundTrip) {
  util::Rng rng(8);
  const auto data = xor_data(300, rng);
  DecisionTree tree;
  tree.train(data);
  std::stringstream buffer;
  tree.save(buffer);
  const auto loaded = DecisionTree::load(buffer);
  EXPECT_EQ(loaded.node_count(), tree.node_count());
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(loaded.predict_proba(data.row(i)), tree.predict_proba(data.row(i)));
  }
}

TEST(DecisionTreeTest, LoadRejectsGarbage) {
  std::stringstream buffer("not a tree");
  EXPECT_THROW(DecisionTree::load(buffer), util::ParseError);
}

TEST(DecisionTreeTest, LoadAcceptsAHandWrittenTree) {
  // The shape training always writes: children after their parent.
  std::stringstream buffer(
      "tree 2 3\n"
      "1 0.5 1 2 0.5 4\n"
      "-1 0 -1 -1 0 0\n"
      "-1 0 -1 -1 1 0\n");
  const auto tree = DecisionTree::load(buffer);
  const double low[] = {9.0, 0.25};
  const double high[] = {9.0, 0.75};
  EXPECT_EQ(tree.predict_proba(low), 0.0);
  EXPECT_EQ(tree.predict_proba(high), 1.0);
}

// Each of these would otherwise read out of bounds, loop forever in
// predict_proba, or size a container from a count nobody checked.
TEST(DecisionTreeTest, LoadRejectsHostileTrees) {
  const char* const hostile[] = {
      // feature past the tree's arity
      "tree 2 3\n2 0.5 1 2 0 0\n-1 0 -1 -1 0 0\n-1 0 -1 -1 1 0\n",
      // feature neither -1 nor a feature index
      "tree 2 3\n-2 0.5 1 2 0 0\n-1 0 -1 -1 0 0\n-1 0 -1 -1 1 0\n",
      // a child past the node list
      "tree 2 3\n0 0.5 1 3 0 0\n-1 0 -1 -1 0 0\n-1 0 -1 -1 1 0\n",
      // a negative child
      "tree 2 3\n0 0.5 -1 2 0 0\n-1 0 -1 -1 0 0\n-1 0 -1 -1 1 0\n",
      // a node that is its own child: predict_proba would never return
      "tree 2 3\n0 0.5 0 2 0 0\n-1 0 -1 -1 0 0\n-1 0 -1 -1 1 0\n",
      // a child before its parent, closing a cycle
      "tree 2 3\n0 0.5 1 2 0 0\n1 0.5 0 2 0 0\n-1 0 -1 -1 1 0\n",
      // a node count far beyond the bytes that follow
      "tree 2 1000000000000000\n-1 0 -1 -1 0.5 0\n",
      // a node count that is no count
      "tree 2 -1\n-1 0 -1 -1 0.5 0\n",
      // no nodes at all
      "tree 2 0\n",
  };
  for (const char* text : hostile) {
    std::stringstream buffer(text);
    EXPECT_THROW(DecisionTree::load(buffer), util::ParseError) << text;
  }
}

// Columns built to trip a rank-based split search: few values, heavy ties,
// adjacent doubles whose midpoints round either way, signed zeros,
// negatives and huge values, and a continuous column whose small nodes hold
// a few ranks scattered among many empty bins.
Dataset split_sweep_data(std::size_t n, util::Rng& rng) {
  const double ulp = std::ldexp(1.0, -52);
  // Midpoints of consecutive pairs: (1, 1+u) rounds down to 1, (1+u, 1+2u)
  // rounds up to 1+2u, (1+2u, 1+3u) down, (1+3u, 1+4u) up.
  const double adjacent[] = {1.0, 1.0 + ulp, 1.0 + 2 * ulp, 1.0 + 3 * ulp, 1.0 + 4 * ulp};
  // Signed zeros, negatives, and values whose sum overflows, so only
  // a + (b - a) / 2 gives the reference's threshold.
  const double signed_zero[] = {-0.0, 0.0, -0.0, 0.0, -1.5, 2.5, -3.0, 1.5e308, 1.7e308};
  Dataset d({"three", "tied", "adjacent", "signed_zero", "mid", "continuous"});
  for (std::size_t i = 0; i < n; ++i) {
    const double three = static_cast<double>(rng.next_below(3));
    const double tied = rng.next_double() < 0.8 ? 0.0 : static_cast<double>(rng.next_below(5));
    const double adj = adjacent[rng.next_below(5)];
    const double zero = signed_zero[rng.next_below(9)];
    const double mid = static_cast<double>(rng.next_below(60)) / 7.0 - 4.0;
    const double continuous = rng.next_double() * 2.0 - 1.0;
    const double row[] = {three, tied, adj, zero, mid, continuous};
    // Labels lean on several columns and keep noise, so trees grow deep.
    double p = 0.15;
    p += adj >= 1.0 + 2 * ulp ? 0.35 : 0.0;
    p += three == 2.0 ? 0.2 : 0.0;
    p += zero >= 0.0 ? 0.1 : 0.0;
    p += continuous > 0.3 ? 0.15 : 0.0;
    d.add_row(row, rng.next_double() < p ? 1 : 0);
  }
  return d;
}

// The nodes of `tree` as its save() bytes spell them; 17 significant
// digits round-trip every double, sign of zero included.
std::vector<testing::ReferenceNode> saved_nodes(const DecisionTree& tree) {
  std::stringstream buffer;
  tree.save(buffer);
  std::string tag;
  std::size_t num_features = 0;
  std::size_t num_nodes = 0;
  buffer >> tag >> num_features >> num_nodes;
  std::vector<testing::ReferenceNode> nodes(num_nodes);
  for (auto& node : nodes) {
    buffer >> node.feature >> node.threshold >> node.left >> node.right >> node.prob >>
        node.importance;
  }
  EXPECT_TRUE(static_cast<bool>(buffer));
  return nodes;
}

void expect_same_nodes(const std::vector<testing::ReferenceNode>& expected,
                       const std::vector<testing::ReferenceNode>& actual,
                       const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& e = expected[i];
    const auto& a = actual[i];
    EXPECT_EQ(e.feature, a.feature) << context << " node " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(e.threshold), std::bit_cast<std::uint64_t>(a.threshold))
        << context << " node " << i;
    EXPECT_EQ(e.left, a.left) << context << " node " << i;
    EXPECT_EQ(e.right, a.right) << context << " node " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(e.prob), std::bit_cast<std::uint64_t>(a.prob))
        << context << " node " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(e.importance),
              std::bit_cast<std::uint64_t>(a.importance))
        << context << " node " << i;
  }
}

TEST(DecisionTreeTest, RankSearchBuildsTheSortedReferenceTreeNodeForNode) {
  util::Rng rng(2015);
  std::size_t rounded_up = 0;
  std::size_t trees = 0;
  for (const std::size_t rows : {40, 300, 900}) {
    const auto data = split_sweep_data(rows, rng);
    const auto ranks = FeatureRanks::build(data);
    // A bootstrap sample: duplicated rows, some rows missing.
    std::vector<std::size_t> sample(rows);
    for (auto& row : sample) {
      row = static_cast<std::size_t>(rng.next_below(rows));
    }
    for (const std::size_t min_leaf : {1, 3}) {
      for (const std::size_t mtry : {1, 3, 0}) {
        for (const std::size_t max_depth : {3, 30}) {
          DecisionTreeConfig config;
          config.max_depth = max_depth;
          config.min_samples_leaf = min_leaf;
          config.mtry = mtry;
          config.seed = rng.next();
          DecisionTree tree(config);
          tree.train_on(data, ranks, sample);
          testing::SortedReferenceTree reference(data, config);
          const std::string context = "rows " + std::to_string(rows) + " min_leaf " +
                                      std::to_string(min_leaf) + " mtry " +
                                      std::to_string(mtry) + " depth " +
                                      std::to_string(max_depth);
          expect_same_nodes(reference.build(sample), saved_nodes(tree), context);
          rounded_up += reference.rounded_up_splits();
          ++trees;
        }
      }
    }
  }
  EXPECT_EQ(trees, 36u);
  // The sweep reached the midpoint that rounds up to b.
  EXPECT_GT(rounded_up, 0u);
}

TEST(DecisionTreeTest, MidpointRoundingUpToTheLargestValueLeavesALeaf) {
  // The only split, between 1 + 2^-52 and 1 + 2^-51, has a threshold that
  // rounds up to 1 + 2^-51, so every row would go left: both searches keep
  // the root a leaf.
  const double a = 1.0 + std::ldexp(1.0, -52);
  const double b = 1.0 + std::ldexp(1.0, -51);
  ASSERT_EQ(a + (b - a) / 2.0, b);
  Dataset d({"f0"});
  for (int i = 0; i < 8; ++i) {
    const double row[] = {i % 2 == 0 ? a : b};
    d.add_row(row, i % 2);
  }
  DecisionTree tree;
  tree.train(d);
  testing::SortedReferenceTree reference(d, DecisionTreeConfig{});
  const std::vector<std::size_t> all = {0, 1, 2, 3, 4, 5, 6, 7};
  expect_same_nodes(reference.build(all), saved_nodes(tree), "adjacent pair");
  EXPECT_EQ(reference.all_left_leaves(), 1u);
  EXPECT_EQ(tree.node_count(), 1u);
}

TEST(DecisionTreeTest, FeatureRanksShareOneRankForSignedZeros) {
  Dataset d({"f0"});
  for (const double v : {0.0, -2.0, -0.0, 3.0, 0.0}) {
    const double row[] = {v};
    d.add_row(row, 0);
  }
  const auto ranks = FeatureRanks::build(d);
  ASSERT_EQ(ranks.values(0).size(), 3u);
  EXPECT_EQ(ranks.values(0)[0], -2.0);
  EXPECT_EQ(ranks.values(0)[2], 3.0);
  const std::vector<std::uint32_t> expected = {1, 0, 1, 2, 1};
  EXPECT_EQ(std::vector<std::uint32_t>(ranks.ranks(0).begin(), ranks.ranks(0).end()), expected);
  EXPECT_EQ(ranks.max_distinct(), 3u);
}

TEST(DecisionTreeTest, FeatureRanksRejectNaN) {
  Dataset d({"f0"});
  const double row[] = {std::nan("")};
  d.add_row(row, 0);
  EXPECT_THROW(FeatureRanks::build(d), util::PreconditionError);
}

}  // namespace
}  // namespace seg::ml
