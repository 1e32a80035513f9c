#include "graph/pruning.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "graph/graph_view.h"
#include "util/require.h"

namespace seg::graph {

// Builds the pruned copy given per-node keep masks. Edges survive when both
// endpoints survive; annotations and labels are carried over; e2LD ids are
// re-interned so the pruned graph has no orphan e2LD entries.
//
// Serial on purpose: with GraphBuilder, apply_labels and remove_probers this
// is the reference the preparation engine (graph/oocore.h) is checked
// against byte for byte.
MachineDomainGraph prune_impl(const GraphView& graph,
                              const std::vector<std::uint8_t>& keep_machine,
                              const std::vector<std::uint8_t>& keep_domain) {
  MachineDomainGraph out;
  out.day_ = graph.day();

  const std::size_t old_nm = graph.machine_count();
  const std::size_t old_nd = graph.domain_count();

  // Dense new ids by exclusive scan over the keep masks; names and labels
  // carried over.
  std::vector<MachineId> machine_map(old_nm, static_cast<MachineId>(old_nm));
  std::vector<DomainId> domain_map(old_nd, static_cast<DomainId>(old_nd));
  for (MachineId m = 0; m < old_nm; ++m) {
    if (keep_machine[m] != 0) {
      machine_map[m] = static_cast<MachineId>(out.machine_names_.size());
      out.machine_names_.emplace_back(graph.machine_name(m));
      out.machine_labels_.push_back(graph.machine_label(m));
    }
  }
  // e2LD ids are re-assigned by first occurrence among surviving domains.
  StringIdMap<E2ldId> e2ld_ids;
  for (DomainId d = 0; d < old_nd; ++d) {
    if (keep_domain[d] == 0) {
      continue;
    }
    domain_map[d] = static_cast<DomainId>(out.domain_names_.size());
    out.domain_names_.emplace_back(graph.domain_name(d));
    out.domain_labels_.push_back(graph.domain_label(d));
    const std::string e2ld(graph.e2ld_name(graph.domain_e2ld(d)));
    if (const auto it = e2ld_ids.find(e2ld); it != e2ld_ids.end()) {
      out.domain_e2ld_.push_back(it->second);
    } else {
      const auto id = static_cast<E2ldId>(out.e2ld_names_.size());
      out.e2ld_names_.push_back(e2ld);
      e2ld_ids.emplace(e2ld, id);
      out.domain_e2ld_.push_back(id);
    }
  }

  // CSR adjacency, both directions. Source adjacency is ascending by id and
  // the id remap is monotonic, so every node's targets stay ascending.
  out.machine_offsets_.push_back(0);
  for (MachineId m = 0; m < old_nm; ++m) {
    if (keep_machine[m] == 0) {
      continue;
    }
    for (const auto d : graph.domains_of(m)) {
      if (keep_domain[d] != 0) {
        out.machine_targets_.push_back(domain_map[d]);
      }
    }
    out.machine_offsets_.push_back(out.machine_targets_.size());
  }
  out.domain_offsets_.push_back(0);
  out.ip_offsets_.push_back(0);
  for (DomainId d = 0; d < old_nd; ++d) {
    if (keep_domain[d] == 0) {
      continue;
    }
    for (const auto m : graph.machines_of(d)) {
      if (keep_machine[m] != 0) {
        out.domain_targets_.push_back(machine_map[m]);
      }
    }
    out.domain_offsets_.push_back(out.domain_targets_.size());
    const auto ips = graph.resolved_ips(d);
    out.resolved_ips_.insert(out.resolved_ips_.end(), ips.begin(), ips.end());
    out.ip_offsets_.push_back(out.resolved_ips_.size());
  }

  out.rebuild_name_index();
  return out;
}

MachineDomainGraph copy_graph(const GraphView& graph) {
  return prune_impl(graph, std::vector<std::uint8_t>(graph.machine_count(), 1),
                    std::vector<std::uint8_t>(graph.domain_count(), 1));
}

MachineDomainGraph prune(const GraphView& graph, const PruningConfig& config,
                         PruneStats* stats) {
  util::require(config.proxy_degree_percentile > 0.0 && config.proxy_degree_percentile <= 1.0,
                "prune: proxy_degree_percentile must be in (0, 1]");
  util::require(config.popular_e2ld_fraction > 0.0 && config.popular_e2ld_fraction <= 1.0,
                "prune: popular_e2ld_fraction must be in (0, 1]");

  PruneStats local;
  PruneStats& s = stats != nullptr ? *stats : local;
  s = PruneStats{};
  s.machines_before = graph.machine_count();
  s.domains_before = graph.domain_count();
  s.edges_before = graph.edge_count();

  const std::size_t nm = graph.machine_count();
  const std::size_t nd = graph.domain_count();

  // --- R2 threshold: theta_d = percentile of the machine-degree
  // distribution.
  std::vector<std::uint64_t> degrees(nm);
  for (MachineId m = 0; m < nm; ++m) {
    degrees[m] = graph.domains_of(m).size();
  }
  std::uint64_t theta_d = std::numeric_limits<std::uint64_t>::max();
  if (!degrees.empty()) {
    std::vector<std::uint64_t> sorted = degrees;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(config.proxy_degree_percentile * static_cast<double>(sorted.size())));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    theta_d = sorted[std::min(index, sorted.size() - 1)];
    // Guard against degenerate distributions where the percentile lands in
    // ordinary-degree territory: R2 targets extreme outliers only.
    theta_d = std::max<std::uint64_t>(theta_d, config.inactive_machine_max_degree + 2);
  }
  s.theta_d = theta_d;

  // --- R1 + R2: machine keep mask.
  std::vector<std::uint8_t> keep_machine(nm, 1);
  for (MachineId m = 0; m < nm; ++m) {
    const bool is_malware = graph.machine_label(m) == Label::kMalware;
    if (degrees[m] <= config.inactive_machine_max_degree) {
      if (is_malware) {
        ++s.malware_machines_kept_by_exception;  // R1 exception
      } else {
        keep_machine[m] = 0;
        ++s.machines_removed_r1;
        continue;
      }
    }
    if (degrees[m] > theta_d) {
      // No exception for R2: proxy-like nodes are noise even when they
      // touch blacklisted names. (theta_d > inactive_machine_max_degree,
      // so R1-excepted malware machines can never land here.) The
      // comparison is strict: theta_d is the largest degree still inside
      // the percentile, so only outliers beyond it are proxies. This keeps
      // the rule a no-op on graphs whose degree distribution is flat.
      keep_machine[m] = 0;
      ++s.machines_removed_r2;
    }
  }

  // --- Domain degrees over surviving machines.
  std::vector<std::uint64_t> domain_degree(nd, 0);
  for (DomainId d = 0; d < nd; ++d) {
    for (const auto m : graph.machines_of(d)) {
      domain_degree[d] += keep_machine[m] != 0 ? 1 : 0;
    }
  }

  // --- R4 threshold and per-e2LD distinct machine counts.
  const auto theta_m = static_cast<std::uint64_t>(
      std::ceil(config.popular_e2ld_fraction * static_cast<double>(graph.machine_count())));
  s.theta_m = theta_m;

  // Group domains by e2LD, then count distinct surviving machines per group
  // using a last-seen stamp per machine (O(edges) overall).
  std::vector<std::vector<DomainId>> by_e2ld(graph.e2ld_count());
  for (DomainId d = 0; d < nd; ++d) {
    by_e2ld[graph.domain_e2ld(d)].push_back(d);
  }
  std::vector<std::uint64_t> e2ld_machines(graph.e2ld_count(), 0);
  std::vector<std::uint32_t> stamp(nm, 0xffffffffu);
  for (std::size_t e = 0; e < by_e2ld.size(); ++e) {
    for (const auto d : by_e2ld[e]) {
      for (const auto m : graph.machines_of(d)) {
        if (keep_machine[m] != 0 && stamp[m] != e) {
          stamp[m] = static_cast<std::uint32_t>(e);
          ++e2ld_machines[e];
        }
      }
    }
  }

  // --- R3 + R4: domain keep mask.
  std::vector<std::uint8_t> keep_domain(nd, 1);
  for (DomainId d = 0; d < nd; ++d) {
    const bool is_malware = graph.domain_label(d) == Label::kMalware;
    if (e2ld_machines[graph.domain_e2ld(d)] >= theta_m) {
      keep_domain[d] = 0;  // R4: no exception
      ++s.domains_removed_r4;
      continue;
    }
    if (domain_degree[d] < config.min_domain_machines) {
      if (is_malware && domain_degree[d] > 0) {
        ++s.malware_domains_kept_by_exception;  // R3 exception
      } else {
        keep_domain[d] = 0;
        ++s.domains_removed_r3;
      }
    }
  }

  MachineDomainGraph out = prune_impl(graph, keep_machine, keep_domain);
  s.machines_after = out.machine_count();
  s.domains_after = out.domain_count();
  s.edges_after = out.edge_count();
  return out;
}

}  // namespace seg::graph
