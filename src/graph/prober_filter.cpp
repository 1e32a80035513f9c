#include "graph/prober_filter.h"

#include "graph/graph_view.h"
#include "util/require.h"

namespace seg::graph {

// Defined in pruning.cpp; rebuilds a graph from keep masks.
MachineDomainGraph prune_impl(const GraphView& graph,
                              const std::vector<std::uint8_t>& keep_machine,
                              const std::vector<std::uint8_t>& keep_domain);

bool is_prober(const ProberFilterConfig& config, std::size_t degree, std::size_t blacklisted) {
  if (degree == 0) {
    return false;
  }
  const double ratio = static_cast<double>(blacklisted) / static_cast<double>(degree);
  return blacklisted >= config.min_blacklisted_domains && ratio >= config.min_blacklisted_ratio;
}

std::vector<std::uint8_t> detect_probers(const MachineDomainGraph& graph,
                                         const ProberFilterConfig& config) {
  util::require(config.min_blacklisted_ratio > 0.0 && config.min_blacklisted_ratio <= 1.0,
                "detect_probers: ratio must be in (0, 1]");
  std::vector<std::uint8_t> probers(graph.machine_count(), 0);
  for (MachineId m = 0; m < graph.machine_count(); ++m) {
    const auto domains = graph.domains_of(m);
    std::size_t blacklisted = 0;
    for (const auto d : domains) {
      blacklisted += graph.domain_label(d) == Label::kMalware ? 1 : 0;
    }
    probers[m] = is_prober(config, domains.size(), blacklisted) ? 1 : 0;
  }
  return probers;
}

MachineDomainGraph remove_probers(const MachineDomainGraph& graph,
                                  const ProberFilterConfig& config,
                                  ProberFilterStats* stats) {
  const auto probers = detect_probers(graph, config);
  std::vector<std::uint8_t> keep_machine(graph.machine_count());
  std::size_t removed = 0;
  for (MachineId m = 0; m < graph.machine_count(); ++m) {
    keep_machine[m] = probers[m] != 0 ? 0 : 1;
    removed += probers[m] != 0 ? 1 : 0;
  }
  if (stats != nullptr) {
    stats->machines_removed = removed;
  }
  const std::vector<std::uint8_t> keep_domain(graph.domain_count(), 1);
  return prune_impl(graph.view(), keep_machine, keep_domain);
}

}  // namespace seg::graph
