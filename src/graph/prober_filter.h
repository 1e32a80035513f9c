// Detection and removal of "probing" clients (Section VI).
//
// Some networks host machines running security tools that continuously
// probe large lists of known malware-related domains (checking liveness,
// resolved IPs, name servers). Such clients are not infected, but they
// query hundreds of blacklisted names, get labeled *malware* by the
// propagation rule, and then contaminate the infected-machine fractions of
// every benign domain they touch. The paper reports using heuristics to
// verify its pruned graphs were free of such clients; this module supplies
// one: a machine is an anomalous prober when its queried set contains an
// implausibly large number (and share) of blacklisted domains — real
// infections query a handful of C&C names (Figure 3: at most ~20), not
// hundreds.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace seg::graph {

struct ProberFilterConfig {
  /// Minimum number of blacklisted (malware-labeled) domains a machine
  /// must query to be considered a prober. Far above Figure 3's ~20-max
  /// per-infection count.
  std::uint32_t min_blacklisted_domains = 30;
  /// Minimum share of the machine's queried domains that are blacklisted.
  double min_blacklisted_ratio = 0.3;
};

/// The heuristic for one machine: it queried `degree` distinct domains,
/// `blacklisted` of them malware-labeled.
bool is_prober(const ProberFilterConfig& config, std::size_t degree, std::size_t blacklisted);

/// Machines flagged as probers under the heuristic (by machine id; 0/1 —
/// a byte vector, not vector<bool>, so callers can fill it in parallel).
std::vector<std::uint8_t> detect_probers(const MachineDomainGraph& graph,
                                         const ProberFilterConfig& config = {});

struct ProberFilterStats {
  std::size_t machines_removed = 0;
};

/// Returns a copy of `graph` with the flagged machines removed (domain
/// nodes are all kept; run prune() afterwards as usual). Labels and
/// annotations carry over.
MachineDomainGraph remove_probers(const MachineDomainGraph& graph,
                                  const ProberFilterConfig& config = {},
                                  ProberFilterStats* stats = nullptr);

}  // namespace seg::graph
