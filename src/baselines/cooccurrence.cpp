#include "baselines/cooccurrence.h"

namespace seg::baselines {

CooccurrenceResult run_cooccurrence(const graph::GraphView& graph) {
  CooccurrenceResult result;
  result.domain_score.assign(graph.domain_count(), 0.0);
  for (graph::DomainId d = 0; d < graph.domain_count(); ++d) {
    const auto machines = graph.machines_of(d);
    if (machines.empty()) {
      continue;
    }
    std::size_t cooccurring = 0;
    for (const auto m : machines) {
      cooccurring += graph.machine_label(m) == graph::Label::kMalware ? 1 : 0;
    }
    result.domain_score[d] =
        static_cast<double>(cooccurring) / static_cast<double>(machines.size());
  }
  return result;
}

}  // namespace seg::baselines
