// Detection-threshold calibration.
//
// The paper tunes the detection threshold "to obtain the desired trade-off
// between true and false positives" (Section II-A3), e.g. <= 0.1% FPs for
// the early-detection deployment (Section IV-F). Operationally the
// threshold is picked on the training day itself: score the day's *known*
// domains with their labels hidden (exactly like training rows) and choose
// the smallest threshold that keeps the FP rate within budget.
#pragma once

#include "core/segugio.h"

namespace seg::core {

struct CalibrationResult {
  double threshold = 0.0;
  double achieved_tpr = 0.0;
  double achieved_fpr = 0.0;
  std::size_t malware_domains = 0;
  std::size_t benign_domains = 0;
};

/// Calibrates on `graph`'s known domains (hidden-label scores) for an FP
/// budget of `max_fpr`. Requires a trained detector and a graph holding
/// both known classes. Any backing works: a heap graph or a mapped view.
CalibrationResult calibrate_threshold(const Segugio& segugio, const graph::GraphView& graph,
                                      const dns::DomainActivityIndex& activity,
                                      const dns::PassiveDnsDb& pdns, double max_fpr);

}  // namespace seg::core
