#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <numeric>
#include <ostream>

#include "util/require.h"

namespace seg::ml {

namespace {

double sigmoid(double z) {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

void LogisticRegression::train(const Dataset& dataset) {
  util::require(dataset.num_rows() > 0, "LogisticRegression::train: empty dataset");
  util::require(dataset.count_label(0) > 0 && dataset.count_label(1) > 0,
                "LogisticRegression::train: need both classes present");

  const std::size_t n = dataset.num_rows();
  const std::size_t d = dataset.num_features();

  // Standardization statistics.
  mean_.assign(d, 0.0);
  stddev_.assign(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = dataset.row(i);
    for (std::size_t f = 0; f < d; ++f) {
      mean_[f] += row[f];
    }
  }
  for (auto& m : mean_) {
    m /= static_cast<double>(n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = dataset.row(i);
    for (std::size_t f = 0; f < d; ++f) {
      const double delta = row[f] - mean_[f];
      stddev_[f] += delta * delta;
    }
  }
  for (auto& s : stddev_) {
    s = std::sqrt(s / static_cast<double>(n));
    if (s < 1e-12) {
      s = 1.0;  // constant feature: pass through unscaled
    }
  }

  // Positive-class rows weigh negatives / positives, countering imbalance.
  const double pos_weight = static_cast<double>(dataset.count_label(0)) /
                            static_cast<double>(dataset.count_label(1));
  constexpr double kLearningRate = 0.1;
  constexpr double kL2 = 1e-4;
  constexpr std::size_t kEpochs = 200;

  weights_.assign(d, 0.0);
  bias_ = 0.0;

  // Mini-batch-free full-gradient descent with a mild decay schedule; the
  // problem sizes here (tens of thousands x 11) make full passes cheap.
  std::vector<double> grad(d);
  std::vector<double> z(d);
  for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double grad_bias = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = dataset.row(i);
      double dot = bias_;
      for (std::size_t f = 0; f < d; ++f) {
        z[f] = (row[f] - mean_[f]) / stddev_[f];
        dot += weights_[f] * z[f];
      }
      const double y = static_cast<double>(dataset.label(i));
      const double weight = dataset.label(i) == 1 ? pos_weight : 1.0;
      const double error = (sigmoid(dot) - y) * weight;
      for (std::size_t f = 0; f < d; ++f) {
        grad[f] += error * z[f];
      }
      grad_bias += error;
    }
    const double lr = kLearningRate / (1.0 + 0.01 * static_cast<double>(epoch));
    for (std::size_t f = 0; f < d; ++f) {
      weights_[f] -= lr * (grad[f] / static_cast<double>(n) + kL2 * weights_[f]);
    }
    bias_ -= lr * grad_bias / static_cast<double>(n);
  }
}

double LogisticRegression::predict_proba(std::span<const double> features) const {
  util::require(is_trained(), "LogisticRegression::predict_proba: not trained");
  util::require(features.size() == weights_.size(),
                "LogisticRegression::predict_proba: feature arity mismatch");
  double dot = bias_;
  for (std::size_t f = 0; f < weights_.size(); ++f) {
    dot += weights_[f] * (features[f] - mean_[f]) / stddev_[f];
  }
  return sigmoid(dot);
}

void LogisticRegression::save(std::ostream& out) const {
  util::require(is_trained(), "LogisticRegression::save: not trained");
  out << "logreg " << weights_.size() << "\n";
  out.precision(17);
  out << bias_ << "\n";
  for (std::size_t f = 0; f < weights_.size(); ++f) {
    out << weights_[f] << " " << mean_[f] << " " << stddev_[f] << "\n";
  }
}

LogisticRegression LogisticRegression::load(std::istream& in) {
  std::string tag;
  std::size_t d = 0;
  in >> tag >> d;
  util::require_data(static_cast<bool>(in) && tag == "logreg" && d > 0,
                     "LogisticRegression::load: malformed header");
  LogisticRegression model;
  in >> model.bias_;
  util::require_data(static_cast<bool>(in), "LogisticRegression::load: truncated model");
  // One feature at a time: a count larger than the stream ends in the
  // truncation error, not in a huge allocation.
  for (std::size_t f = 0; f < d; ++f) {
    double weight = 0.0;
    double mean = 0.0;
    double stddev = 0.0;
    in >> weight >> mean >> stddev;
    util::require_data(static_cast<bool>(in), "LogisticRegression::load: truncated model");
    model.weights_.push_back(weight);
    model.mean_.push_back(mean);
    model.stddev_.push_back(stddev);
  }
  return model;
}

}  // namespace seg::ml
