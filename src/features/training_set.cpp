#include "features/training_set.h"

#include <algorithm>
#include <span>

#include "util/parallel.h"
#include "util/require.h"

namespace seg::features {

namespace {

// Extracts features for a batch of domains in parallel; the output order
// matches `ids` exactly, so results are deterministic for any thread count.
std::vector<FeatureVector> extract_batch(const FeatureExtractor& extractor,
                                         std::span<const graph::DomainId> ids,
                                         bool hide_labels) {
  std::vector<FeatureVector> rows(ids.size());
  util::parallel_for(ids.size(), [&](std::size_t i) {
    rows[i] = hide_labels ? extractor.extract_hiding_label(ids[i])
                          : extractor.extract(ids[i]);
  });
  return rows;
}

}  // namespace

TrainingSetResult build_training_set(const graph::GraphView& graph,
                                     const FeatureExtractor& extractor,
                                     const TrainingSetOptions& options) {
  std::vector<graph::DomainId> malware_ids;
  std::vector<graph::DomainId> benign_ids;
  std::size_t excluded = 0;
  for (graph::DomainId d = 0; d < graph.domain_count(); ++d) {
    const auto label = graph.domain_label(d);
    if (label == graph::Label::kUnknown) {
      continue;
    }
    if (options.exclude != nullptr && options.exclude->contains(graph.domain_name(d))) {
      ++excluded;
      continue;
    }
    (label == graph::Label::kMalware ? malware_ids : benign_ids).push_back(d);
  }

  const std::size_t cap = options.max_benign;
  if (cap != 0 && benign_ids.size() > cap) {
    util::Rng rng(options.seed);
    const auto chosen = rng.sample_without_replacement(benign_ids.size(), cap);
    std::vector<graph::DomainId> kept;
    kept.reserve(cap);
    for (const auto i : chosen) {
      kept.push_back(benign_ids[i]);
    }
    std::sort(kept.begin(), kept.end());
    benign_ids = std::move(kept);
  }

  TrainingSetResult result{ml::Dataset(feature_names()), malware_ids.size(),
                           benign_ids.size(), excluded};
  for (const auto& features : extract_batch(extractor, malware_ids, /*hide_labels=*/true)) {
    result.dataset.add_row(features, 1);
  }
  for (const auto& features : extract_batch(extractor, benign_ids, /*hide_labels=*/true)) {
    result.dataset.add_row(features, 0);
  }
  return result;
}

UnknownSet build_unknown_set(const graph::GraphView& graph,
                             const FeatureExtractor& extractor) {
  UnknownSet result{ml::Dataset(feature_names()), {}};
  for (graph::DomainId d = 0; d < graph.domain_count(); ++d) {
    if (graph.domain_label(d) == graph::Label::kUnknown) {
      result.domain_ids.push_back(d);
    }
  }
  for (const auto& features :
       extract_batch(extractor, result.domain_ids, /*hide_labels=*/false)) {
    // The dataset requires a label; unknown rows get a placeholder 0 that
    // callers must ignore (scores are what matters here).
    result.dataset.add_row(features, 0);
  }
  return result;
}

}  // namespace seg::features
