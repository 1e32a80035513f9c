// Notos-style domain reputation baseline (Antonakakis et al., USENIX
// Security'10 — the paper's reference [3], compared against in Section V).
//
// A reputation system in Notos's spirit, with the same information
// constraints the paper's comparison hinges on:
//
//   - it models the domain NAME (string statistics) and its HISTORY
//     (how long the zone has been seen, what IP space it maps into,
//     whether that space was previously abused) — but never *who queries
//     it*, the signal Segugio is built on;
//   - it has a REJECT OPTION: domains without enough historic evidence
//     (young zone, never-seen IP space) are not classified at all, which
//     caps the achievable TP rate on fresh malware-control domains
//     (Figure 12a's plateau).
//
// Trained like the paper's setup: a malicious-domain blacklist plus the
// top-100K popular whitelist, both as of the training day.
#pragma once

#include <array>
#include <memory>
#include <optional>

#include "dns/activity_index.h"
#include "dns/pdns.h"
#include "graph/graph_view.h"
#include "graph/labeling.h"
#include "ml/random_forest.h"

namespace seg::baselines {

inline constexpr std::size_t kNotosFeatureCount = 10;

struct NotosConfig {
  /// A domain is scored only if its e2LD has been seen for at least this
  /// many days OR its exact resolved IPs carry prior pDNS evidence.
  /// Reputation needs history: young zones on never-seen addresses are
  /// rejected, which caps the TP rate on fresh malware-control domains.
  dns::Day min_history_days = 20;
  /// pDNS lookback window (days).
  dns::Day pdns_window_days = dns::kDefaultPdnsWindowDays;
  ml::RandomForestConfig forest;
};

class NotosLikeClassifier {
 public:
  explicit NotosLikeClassifier(NotosConfig config = {});

  /// Trains on the labeled domains of `graph` that match the given lists
  /// (blacklist = positives, whitelist e2LDs = negatives).
  void train(const graph::GraphView& graph, const dns::DomainActivityIndex& activity,
             const dns::PassiveDnsDb& pdns, const graph::NameSet& blacklist,
             const graph::NameSet& whitelist_e2lds);

  bool is_trained() const;

  /// Reputation-based malware score of a domain in `graph`, or nullopt
  /// when the reject option declines to classify it.
  std::optional<double> score(const graph::GraphView& graph, graph::DomainId d,
                              const dns::DomainActivityIndex& activity,
                              const dns::PassiveDnsDb& pdns) const;

  /// Feature measurement (exposed for tests).
  std::array<double, kNotosFeatureCount> measure(const graph::GraphView& graph,
                                                 graph::DomainId d,
                                                 const dns::DomainActivityIndex& activity,
                                                 const dns::PassiveDnsDb& pdns) const;

  /// True when the reject option would decline this domain.
  bool rejects(const graph::GraphView& graph, graph::DomainId d,
               const dns::DomainActivityIndex& activity, const dns::PassiveDnsDb& pdns) const;

 private:
  NotosConfig config_;
  std::unique_ptr<ml::RandomForest> forest_;
};

}  // namespace seg::baselines
