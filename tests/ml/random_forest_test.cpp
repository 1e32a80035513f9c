#include "ml/random_forest.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "ml/metrics.h"
#include "util/require.h"
#include "util/rng.h"

namespace seg::ml {
namespace {

// Noisy two-gaussian problem: positives centered at (1,1), negatives at
// (0,0), overlapping.
Dataset gaussians(std::size_t n, util::Rng& rng, double separation = 1.0) {
  Dataset d({"x", "y"});
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 2);
    const double cx = label == 1 ? separation : 0.0;
    const double row[] = {cx + rng.next_gaussian() * 0.6, cx + rng.next_gaussian() * 0.6};
    d.add_row(row, label);
  }
  return d;
}

TEST(RandomForestTest, OutperformsChanceOnNoisyData) {
  util::Rng rng(1);
  const auto train = gaussians(2000, rng);
  const auto test = gaussians(500, rng);
  RandomForestConfig config;
  config.num_trees = 50;
  config.num_threads = 2;
  RandomForest forest(config);
  forest.train(train);

  std::vector<int> labels;
  std::vector<double> scores;
  for (std::size_t i = 0; i < test.num_rows(); ++i) {
    labels.push_back(test.label(i));
    scores.push_back(forest.predict_proba(test.row(i)));
  }
  const auto roc = RocCurve::compute(labels, scores);
  EXPECT_GT(roc.auc(), 0.85);
}

TEST(RandomForestTest, ScoresAreProbabilities) {
  util::Rng rng(2);
  const auto data = gaussians(500, rng);
  RandomForestConfig config;
  config.num_trees = 10;
  config.num_threads = 1;
  RandomForest forest(config);
  forest.train(data);
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    const double p = forest.predict_proba(data.row(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(RandomForestTest, DeterministicAcrossThreadCounts) {
  util::Rng rng(3);
  const auto data = gaussians(400, rng);
  RandomForestConfig config;
  config.num_trees = 16;
  config.seed = 99;
  config.num_threads = 1;
  RandomForest forest1(config);
  forest1.train(data);
  config.num_threads = 4;
  RandomForest forest4(config);
  forest4.train(data);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(forest1.predict_proba(data.row(i)), forest4.predict_proba(data.row(i)));
  }
}

TEST(RandomForestTest, MoreTreesSmoothScores) {
  // With a single tree, scores are leaf frequencies (mostly 0/1); averaging
  // many trees yields intermediate values for ambiguous points.
  util::Rng rng(4);
  const auto data = gaussians(1000, rng, /*separation=*/0.5);
  RandomForestConfig config1;
  config1.num_trees = 1;
  config1.num_threads = 1;
  RandomForest one(config1);
  one.train(data);
  RandomForestConfig config50 = config1;
  config50.num_trees = 50;
  RandomForest fifty(config50);
  fifty.train(data);

  std::size_t one_extreme = 0;
  std::size_t fifty_extreme = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    const double p1 = one.predict_proba(data.row(i));
    const double p50 = fifty.predict_proba(data.row(i));
    one_extreme += (p1 == 0.0 || p1 == 1.0) ? 1 : 0;
    fifty_extreme += (p50 == 0.0 || p50 == 1.0) ? 1 : 0;
  }
  EXPECT_GT(one_extreme, fifty_extreme);
}

TEST(RandomForestTest, RequiresBothClasses) {
  Dataset d({"f0"});
  const double row[] = {1.0};
  d.add_row(row, 1);
  RandomForest forest;
  EXPECT_THROW(forest.train(d), util::PreconditionError);
}

TEST(RandomForestTest, UntrainedPredictThrows) {
  RandomForest forest;
  const double probe[] = {0.0};
  EXPECT_THROW(forest.predict_proba(probe), util::PreconditionError);
}

TEST(RandomForestTest, FeatureImportanceIsNormalizedAndInformative) {
  util::Rng rng(5);
  Dataset d({"signal", "noise"});
  for (std::size_t i = 0; i < 1000; ++i) {
    const int label = static_cast<int>(i % 2);
    const double row[] = {static_cast<double>(label) + rng.next_gaussian() * 0.2,
                          rng.next_double()};
    d.add_row(row, label);
  }
  RandomForestConfig config;
  config.num_trees = 20;
  config.num_threads = 1;
  RandomForest forest(config);
  forest.train(d);
  const auto importance = forest.feature_importance();
  ASSERT_EQ(importance.size(), 2u);
  EXPECT_NEAR(importance[0] + importance[1], 1.0, 1e-9);
  EXPECT_GT(importance[0], 0.8);
}

TEST(RandomForestTest, OobErrorIsSmallOnSeparableData) {
  util::Rng rng(6);
  const auto data = gaussians(1000, rng, /*separation=*/3.0);
  RandomForestConfig config;
  config.num_trees = 30;
  config.num_threads = 1;
  config.compute_oob = true;
  RandomForest forest(config);
  forest.train(data);
  EXPECT_LT(forest.oob_error(), 0.05);
}

TEST(RandomForestTest, OobErrorThrowsWhenNotComputed) {
  util::Rng rng(7);
  const auto data = gaussians(100, rng);
  RandomForest forest;  // compute_oob defaults to false
  forest.train(data);
  EXPECT_THROW(forest.oob_error(), util::PreconditionError);
}

TEST(RandomForestTest, SaveLoadRoundTrip) {
  util::Rng rng(8);
  const auto data = gaussians(400, rng);
  RandomForestConfig config;
  config.num_trees = 8;
  config.num_threads = 1;
  RandomForest forest(config);
  forest.train(data);
  std::stringstream buffer;
  forest.save(buffer);
  const auto loaded = RandomForest::load(buffer);
  EXPECT_EQ(loaded.tree_count(), forest.tree_count());
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(loaded.predict_proba(data.row(i)), forest.predict_proba(data.row(i)));
  }
}

TEST(RandomForestTest, LoadRejectsHostileForests) {
  const std::string leaf_tree = "tree 2 1\n-1 0 -1 -1 0.5 0\n";
  const std::string hostile[] = {
      // no trees
      "forest 2 0\n",
      // a tree count far beyond the bytes that follow
      "forest 2 1000000000000000\n" + leaf_tree,
      // a tree whose arity is not the forest's
      "forest 2 1\ntree 3 1\n-1 0 -1 -1 0.5 0\n",
      // a tree that reads past its node list
      "forest 2 1\ntree 2 3\n0 0.5 1 7 0 0\n-1 0 -1 -1 0 0\n-1 0 -1 -1 1 0\n",
  };
  for (const auto& text : hostile) {
    std::stringstream buffer(text);
    EXPECT_THROW(RandomForest::load(buffer), util::ParseError) << text;
  }
  std::stringstream valid("forest 2 2\n" + leaf_tree + leaf_tree);
  const auto forest = RandomForest::load(valid);
  const double probe[] = {0.0, 0.0};
  EXPECT_EQ(forest.predict_proba(probe), 0.5);
}

TEST(RandomForestTest, SaveUntrainedThrows) {
  RandomForest forest;
  std::stringstream buffer;
  EXPECT_THROW(forest.save(buffer), util::PreconditionError);
}

TEST(RandomForestTest, SampleFractionValidation) {
  util::Rng rng(9);
  const auto data = gaussians(50, rng);
  RandomForestConfig config;
  config.sample_fraction = 0.0;
  RandomForest forest(config);
  EXPECT_THROW(forest.train(data), util::PreconditionError);
}

TEST(RandomForestTest, ScoreAllMatchesRowWiseCalls) {
  util::Rng rng(10);
  const auto data = gaussians(100, rng);
  RandomForestConfig config;
  config.num_trees = 5;
  config.num_threads = 1;
  RandomForest forest(config);
  forest.train(data);
  const auto scores = forest.score_all(data);
  ASSERT_EQ(scores.size(), data.num_rows());
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(scores[i], forest.predict_proba(data.row(i)));
  }
}

// Property sweep over forest sizes: AUC should be monotone-ish (not
// strictly, but never collapse) and determinism must hold.
class ForestSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ForestSizeTest, ReasonableAucAtEachSize) {
  util::Rng rng(42);
  const auto train = gaussians(800, rng);
  const auto test = gaussians(300, rng);
  RandomForestConfig config;
  config.num_trees = GetParam();
  config.num_threads = 2;
  RandomForest forest(config);
  forest.train(train);
  std::vector<int> labels;
  std::vector<double> scores;
  for (std::size_t i = 0; i < test.num_rows(); ++i) {
    labels.push_back(test.label(i));
    scores.push_back(forest.predict_proba(test.row(i)));
  }
  EXPECT_GT(RocCurve::compute(labels, scores).auc(), 0.8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ForestSizeTest, ::testing::Values(1, 5, 20, 60));

}  // namespace
}  // namespace seg::ml
