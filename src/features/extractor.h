// Per-domain feature measurement (Figure 4).
//
// The extractor combines three views of a domain:
//   - the behavior graph (who queries it, with what labels) for F1;
//   - the domain activity index (how many of the past n days it was
//     queried) for F2;
//   - the passive DNS database (was its resolved IP space previously
//     abused) for F3.
//
// Two modes:
//   extract()              — for *unknown* domains at deployment time;
//   extract_hiding_label() — for known benign/malware domains during
//     training-set preparation, which first "hides" the domain's own label
//     and relabels the machines that would lose their only evidence
//     (Figure 5), so training features are measured exactly like
//     deployment features.
#pragma once

#include <array>
#include <span>

#include "dns/activity_index.h"
#include "dns/pdns.h"
#include "features/feature_config.h"
#include "graph/graph_view.h"

namespace seg::features {

using FeatureVector = std::array<double, kNumFeatures>;

class FeatureExtractor {
 public:
  /// All referenced objects (including the view's backing graph) must
  /// outlive the extractor. `graph` must be labeled (and normally pruned);
  /// any backing works — a heap graph or an mmap-resident graph from
  /// graph::map_graph(). extract() reads the stores per domain and may run
  /// in parallel: const lookups into them are thread-safe.
  FeatureExtractor(graph::GraphView graph, const dns::DomainActivityIndex& activity,
                   const dns::PassiveDnsDb& pdns, FeatureConfig config = {});

  /// Features of domain `d` using current graph labels as-is.
  FeatureVector extract(graph::DomainId d) const;

  /// Features of domain `d` with its own label hidden: machines whose
  /// *only* malware evidence is `d` are treated as unknown for F1
  /// (Figure 5 semantics). Use for known domains when building training
  /// (or evaluation) sets.
  FeatureVector extract_hiding_label(graph::DomainId d) const;

  const FeatureConfig& config() const { return config_; }

 private:
  FeatureVector extract_impl(graph::DomainId d, bool hide_label) const;
  void precompute_machine_degrees();

  graph::GraphView graph_;
  const dns::DomainActivityIndex* activity_ = nullptr;
  const dns::PassiveDnsDb* pdns_ = nullptr;
  FeatureConfig config_;

  // Per-machine count of queried malware-labeled domains, precomputed so
  // hiding a label is O(|S|) instead of O(sum of machine degrees).
  std::vector<std::uint32_t> machine_malware_degree_;
};

}  // namespace seg::features
