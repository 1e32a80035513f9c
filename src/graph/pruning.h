// Conservative graph pruning (Section II-A2).
//
// Rules, applied in order R1, R2 (machines), then R3, R4 (domains, with
// domain degrees recomputed over surviving machines):
//
//   R1  drop machines querying <= `inactive_machine_max_degree` domains,
//       EXCEPT machines already labeled malware (they may query only a
//       couple of C&C names and still help detection);
//   R2  drop proxy/NAT-like machines querying more domains than theta_d,
//       where theta_d is the `proxy_degree_percentile` of the machine-degree
//       distribution (i.e. the largest still-normal degree; only outliers
//       strictly beyond it are treated as proxies/forwarders);
//   R3  drop domains queried by fewer than `min_domain_machines` machines,
//       EXCEPT domains already labeled malware;
//   R4  drop domains whose effective 2LD is queried by >= theta_m machines,
//       theta_m = `popular_e2ld_fraction` of all machines in the network
//       (measured on the unpruned machine population).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_view.h"

namespace seg::graph {

struct PruningConfig {
  /// R1: machines with degree <= this are "inactive" (paper uses 5).
  std::uint32_t inactive_machine_max_degree = 5;
  /// R2: percentile of the machine-degree distribution used as theta_d.
  double proxy_degree_percentile = 0.9999;
  /// R3: minimum number of distinct querying machines for a domain.
  std::uint32_t min_domain_machines = 2;
  /// R4: fraction of all machines that makes an e2LD "too popular".
  double popular_e2ld_fraction = 1.0 / 3.0;
};

struct PruneStats {
  std::size_t machines_before = 0;
  std::size_t machines_after = 0;
  std::size_t domains_before = 0;
  std::size_t domains_after = 0;
  std::size_t edges_before = 0;
  std::size_t edges_after = 0;

  std::size_t machines_removed_r1 = 0;
  std::size_t machines_removed_r2 = 0;
  std::size_t domains_removed_r3 = 0;
  std::size_t domains_removed_r4 = 0;

  std::size_t malware_machines_kept_by_exception = 0;  ///< R1 exception
  std::size_t malware_domains_kept_by_exception = 0;   ///< R3 exception

  std::uint64_t theta_d = 0;  ///< resolved R2 threshold
  std::uint64_t theta_m = 0;  ///< resolved R4 threshold

  double domain_reduction() const {
    return domains_before == 0
               ? 0.0
               : 1.0 - static_cast<double>(domains_after) / static_cast<double>(domains_before);
  }
  double machine_reduction() const {
    return machines_before == 0 ? 0.0
                                : 1.0 - static_cast<double>(machines_after) /
                                            static_cast<double>(machines_before);
  }
  double edge_reduction() const {
    return edges_before == 0
               ? 0.0
               : 1.0 - static_cast<double>(edges_after) / static_cast<double>(edges_before);
  }
};

/// Produces a pruned copy of `graph` (labels and annotations carried over,
/// ids remapped densely). `stats`, when non-null, receives the breakdown.
/// Runs identically over any backing (heap or mmap-resident graphs,
/// graph_view.h); the result is always heap-resident.
MachineDomainGraph prune(const GraphView& graph, const PruningConfig& config,
                         PruneStats* stats = nullptr);

}  // namespace seg::graph
