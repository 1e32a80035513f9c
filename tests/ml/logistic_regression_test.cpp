#include "ml/logistic_regression.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "ml/metrics.h"
#include "util/require.h"
#include "util/rng.h"

namespace seg::ml {
namespace {

Dataset linear_problem(std::size_t n, util::Rng& rng) {
  // label = 1 when 2*x - y > 0, with noise.
  Dataset d({"x", "y"});
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.next_gaussian();
    const double y = rng.next_gaussian();
    const double margin = 2.0 * x - y + rng.next_gaussian() * 0.2;
    const double row[] = {x, y};
    d.add_row(row, margin > 0.0 ? 1 : 0);
  }
  return d;
}

TEST(LogisticRegressionTest, LearnsLinearBoundary) {
  util::Rng rng(1);
  const auto train = linear_problem(2000, rng);
  const auto test = linear_problem(500, rng);
  LogisticRegression model;
  model.train(train);
  std::vector<int> labels;
  std::vector<double> scores;
  for (std::size_t i = 0; i < test.num_rows(); ++i) {
    labels.push_back(test.label(i));
    scores.push_back(model.predict_proba(test.row(i)));
  }
  EXPECT_GT(RocCurve::compute(labels, scores).auc(), 0.95);
}

TEST(LogisticRegressionTest, WeightSignsMatchGeneratingModel) {
  util::Rng rng(2);
  const auto train = linear_problem(2000, rng);
  LogisticRegression model;
  model.train(train);
  ASSERT_EQ(model.weights().size(), 2u);
  EXPECT_GT(model.weights()[0], 0.0);  // +2x
  EXPECT_LT(model.weights()[1], 0.0);  // -y
}

TEST(LogisticRegressionTest, ScoresAreProbabilities) {
  util::Rng rng(3);
  const auto data = linear_problem(200, rng);
  LogisticRegression model;
  model.train(data);
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    const double p = model.predict_proba(data.row(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(LogisticRegressionTest, HandlesClassImbalanceWithAutoWeight) {
  // 95:5 imbalance; auto positive weighting should still find the signal.
  util::Rng rng(4);
  Dataset d({"x"});
  for (std::size_t i = 0; i < 950; ++i) {
    const double row[] = {rng.next_gaussian()};
    d.add_row(row, 0);
  }
  for (std::size_t i = 0; i < 50; ++i) {
    const double row[] = {3.0 + rng.next_gaussian()};
    d.add_row(row, 1);
  }
  LogisticRegression model;
  model.train(d);
  const double low[] = {0.0};
  const double high[] = {3.0};
  EXPECT_LT(model.predict_proba(low), model.predict_proba(high));
  EXPECT_GT(model.predict_proba(high), 0.5);
}

TEST(LogisticRegressionTest, ConstantFeatureDoesNotProduceNan) {
  util::Rng rng(5);
  Dataset d({"constant", "signal"});
  for (std::size_t i = 0; i < 100; ++i) {
    const int label = static_cast<int>(i % 2);
    const double row[] = {1.0, static_cast<double>(label)};
    d.add_row(row, label);
  }
  LogisticRegression model;
  model.train(d);
  const double probe[] = {1.0, 1.0};
  const double p = model.predict_proba(probe);
  EXPECT_FALSE(std::isnan(p));
  EXPECT_GT(p, 0.5);
}

TEST(LogisticRegressionTest, RequiresBothClasses) {
  Dataset d({"x"});
  const double row[] = {1.0};
  d.add_row(row, 0);
  LogisticRegression model;
  EXPECT_THROW(model.train(d), util::PreconditionError);
}

TEST(LogisticRegressionTest, UntrainedPredictThrows) {
  LogisticRegression model;
  const double probe[] = {0.0};
  EXPECT_THROW(model.predict_proba(probe), util::PreconditionError);
}

TEST(LogisticRegressionTest, SaveLoadRoundTrip) {
  util::Rng rng(6);
  const auto data = linear_problem(500, rng);
  LogisticRegression model;
  model.train(data);
  std::stringstream buffer;
  model.save(buffer);
  const auto loaded = LogisticRegression::load(buffer);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_NEAR(loaded.predict_proba(data.row(i)), model.predict_proba(data.row(i)), 1e-12);
  }
}

TEST(LogisticRegressionTest, LoadRejectsGarbage) {
  const char* const garbage[] = {
      "junk",
      // a feature count far beyond the bytes that follow
      "logreg 4000000000\n0.5\n1 0 1\n",
      // a feature count that is no count
      "logreg -1\n0.5\n1 0 1\n",
      // no features at all
      "logreg 0\n0.5\n",
      // one feature short
      "logreg 2\n0.5\n1 0 1\n",
  };
  for (const char* text : garbage) {
    std::stringstream buffer(text);
    EXPECT_THROW(LogisticRegression::load(buffer), util::ParseError) << text;
  }
}

}  // namespace
}  // namespace seg::ml
