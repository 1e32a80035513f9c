// Training / evaluation dataset construction (Figure 5).
//
// For every known benign or malware domain in a labeled (pruned) graph, the
// builder measures features with the domain's own label hidden, then emits
// the feature vector with the original label restored. Known domains can be
// excluded (the cross-day protocol of Section IV-A quarantines test-domain
// names from training), and the dominant benign class can be subsampled.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "features/extractor.h"
#include "graph/labeling.h"
#include "ml/dataset.h"
#include "util/rng.h"

namespace seg::features {

struct TrainingSetOptions {
  /// Cap on benign rows (0 = no cap); subsampled uniformly when exceeded.
  /// Malware rows are never capped.
  std::size_t max_benign = 0;
  /// Domains whose *names* appear here are skipped entirely (test
  /// quarantine). May be null.
  const graph::NameSet* exclude = nullptr;
  std::uint64_t seed = 1234;
};

struct TrainingSetResult {
  ml::Dataset dataset;
  std::size_t malware_rows = 0;
  std::size_t benign_rows = 0;
  std::size_t excluded = 0;
};

/// Builds the labeled training set from all known domains in the graph
/// (any backing, graph_view.h).
TrainingSetResult build_training_set(const graph::GraphView& graph,
                                     const FeatureExtractor& extractor,
                                     const TrainingSetOptions& options = {});

/// Feature rows for every *unknown* domain in the graph, plus the matching
/// domain ids (row i describes domain ids[i]). Used at classification time.
struct UnknownSet {
  ml::Dataset dataset;
  std::vector<graph::DomainId> domain_ids;
};

UnknownSet build_unknown_set(const graph::GraphView& graph,
                             const FeatureExtractor& extractor);

}  // namespace seg::features
