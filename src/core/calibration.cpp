#include "core/calibration.h"

#include "ml/metrics.h"
#include "util/require.h"

namespace seg::core {

CalibrationResult calibrate_threshold(const Segugio& segugio, const graph::GraphView& graph,
                                      const dns::DomainActivityIndex& activity,
                                      const dns::PassiveDnsDb& pdns, double max_fpr) {
  util::require(segugio.is_trained(), "calibrate_threshold: detector not trained");
  util::require(max_fpr > 0.0 && max_fpr <= 1.0,
                "calibrate_threshold: max_fpr must be in (0, 1]");
  const features::FeatureExtractor extractor(graph, activity, pdns,
                                             segugio.config().features);
  std::vector<int> labels;
  std::vector<double> scores;
  for (graph::DomainId d = 0; d < graph.domain_count(); ++d) {
    const auto label = graph.domain_label(d);
    if (label == graph::Label::kUnknown) {
      continue;
    }
    labels.push_back(label == graph::Label::kMalware ? 1 : 0);
    scores.push_back(segugio.score(extractor.extract_hiding_label(d)));
  }
  const auto roc = ml::RocCurve::compute(labels, scores);

  CalibrationResult result;
  result.threshold = roc.threshold_for_fpr(max_fpr);
  result.malware_domains = roc.positives();
  result.benign_domains = roc.negatives();
  const auto confusion = ml::confusion_at(labels, scores, result.threshold);
  result.achieved_tpr = confusion.tpr();
  result.achieved_fpr = confusion.fpr();
  return result;
}

}  // namespace seg::core
