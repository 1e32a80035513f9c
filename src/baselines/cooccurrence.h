// Query co-occurrence baseline (Sato et al., LEET'10 — the paper's
// reference [21]).
//
// Scores an unknown domain by how strongly its querying machines co-occur
// with queries to known (blacklisted) C&C domains: the fraction of the
// domain's querying machines that also queried at least one blacklisted
// domain in the same window. Domains with zero co-occurrence are
// undetectable — the limitation Segugio's extra feature groups remove.
#pragma once

#include <vector>

#include "graph/graph_view.h"

namespace seg::baselines {

struct CooccurrenceResult {
  /// Score in [0, 1] per domain node (1 = all querying machines also touch
  /// blacklisted domains). Labeled domains get their trivial score too.
  std::vector<double> domain_score;
};

CooccurrenceResult run_cooccurrence(const graph::GraphView& graph);

}  // namespace seg::baselines
