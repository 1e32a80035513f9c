// L2-regularized logistic regression trained by gradient descent, the
// paper's alternative classifier (reference [10], liblinear-style).
//
// Features are standardized internally (z-scores from training statistics),
// so callers can feed raw Segugio feature vectors.
#pragma once

#include <iosfwd>
#include <vector>

#include "ml/classifier.h"

namespace seg::ml {

class LogisticRegression final : public Classifier {
 public:
  void train(const Dataset& dataset) override;
  double predict_proba(std::span<const double> features) const override;
  bool is_trained() const override { return !weights_.empty(); }

  const std::vector<double>& weights() const { return weights_; }
  double bias() const { return bias_; }

  void save(std::ostream& out) const;
  static LogisticRegression load(std::istream& in);

 private:
  std::vector<double> weights_;
  double bias_ = 0.0;
  std::vector<double> mean_;
  std::vector<double> stddev_;
};

}  // namespace seg::ml
