#include "graph/pruning.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "graph/graph_view.h"
#include "util/obs/trace.h"
#include "util/parallel.h"
#include "util/require.h"

namespace seg::graph {

// Builds the pruned copy given per-node keep masks (0/1 bytes so chunks can
// be written concurrently). Edges survive when both endpoints survive;
// annotations and labels are carried over; e2LD ids are re-interned so the
// pruned graph has no orphan e2LD entries.
//
// Every parallel pass below writes to disjoint index ranges determined only
// by the input graph and the masks, so the output is identical for every
// thread count.
MachineDomainGraph prune_impl(const GraphView& graph,
                              const std::vector<std::uint8_t>& keep_machine,
                              const std::vector<std::uint8_t>& keep_domain) {
  MachineDomainGraph out;
  out.day_ = graph.day();

  const std::size_t old_nm = graph.machine_count();
  const std::size_t old_nd = graph.domain_count();

  // Dense new ids by exclusive scan over the keep masks.
  std::vector<MachineId> machine_map(old_nm, static_cast<MachineId>(old_nm));
  std::vector<DomainId> domain_map(old_nd, static_cast<DomainId>(old_nd));
  std::size_t nm = 0;
  for (MachineId m = 0; m < old_nm; ++m) {
    if (keep_machine[m] != 0) {
      machine_map[m] = static_cast<MachineId>(nm++);
    }
  }
  std::size_t nd = 0;
  for (DomainId d = 0; d < old_nd; ++d) {
    if (keep_domain[d] != 0) {
      domain_map[d] = static_cast<DomainId>(nd++);
    }
  }

  // Names and labels (parallel: each surviving node owns one output slot).
  out.machine_names_.resize(nm);
  out.machine_labels_.resize(nm);
  util::parallel_for(old_nm, [&](std::size_t m) {
    if (keep_machine[m] != 0) {
      out.machine_names_[machine_map[m]] = std::string(graph.machine_name(static_cast<MachineId>(m)));
      out.machine_labels_[machine_map[m]] = graph.machine_label(static_cast<MachineId>(m));
    }
  });
  out.domain_names_.resize(nd);
  out.domain_labels_.resize(nd);
  util::parallel_for(old_nd, [&](std::size_t d) {
    if (keep_domain[d] != 0) {
      out.domain_names_[domain_map[d]] = std::string(graph.domain_name(static_cast<DomainId>(d)));
      out.domain_labels_[domain_map[d]] = graph.domain_label(static_cast<DomainId>(d));
    }
  });

  // e2LD re-interning stays a serial in-order pass (ids are assigned by
  // first occurrence among surviving domains).
  StringIdMap<E2ldId> e2ld_ids;
  out.domain_e2ld_.reserve(nd);
  for (DomainId d = 0; d < old_nd; ++d) {
    if (keep_domain[d] == 0) {
      continue;
    }
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

  // Surviving-edge counts per endpoint (each node's count is its own slot).
  out.machine_offsets_.assign(nm + 1, 0);
  util::parallel_for(old_nm, [&](std::size_t m) {
    if (keep_machine[m] == 0) {
      return;
    }
    std::uint64_t count = 0;
    for (const auto d : graph.domains_of(static_cast<MachineId>(m))) {
      count += keep_domain[d] != 0 ? 1 : 0;
    }
    out.machine_offsets_[machine_map[m] + 1] = count;
  });
  out.domain_offsets_.assign(nd + 1, 0);
  util::parallel_for(old_nd, [&](std::size_t d) {
    if (keep_domain[d] == 0) {
      return;
    }
    std::uint64_t count = 0;
    for (const auto m : graph.machines_of(static_cast<DomainId>(d))) {
      count += keep_machine[m] != 0 ? 1 : 0;
    }
    out.domain_offsets_[domain_map[d] + 1] = count;
  });
  for (std::size_t i = 1; i <= nm; ++i) {
    out.machine_offsets_[i] += out.machine_offsets_[i - 1];
  }
  for (std::size_t i = 1; i <= nd; ++i) {
    out.domain_offsets_[i] += out.domain_offsets_[i - 1];
  }

  // CSR fills: every surviving node writes its own contiguous slice. Source
  // adjacency is ascending by id and the id remap is monotonic, so slices
  // come out ascending exactly as the serial counting sort produced them.
  out.machine_targets_.resize(out.machine_offsets_.back());
  util::parallel_for(old_nm, [&](std::size_t m) {
    if (keep_machine[m] == 0) {
      return;
    }
    auto cursor = out.machine_offsets_[machine_map[m]];
    for (const auto d : graph.domains_of(static_cast<MachineId>(m))) {
      if (keep_domain[d] != 0) {
        out.machine_targets_[cursor++] = domain_map[d];
      }
    }
  });
  out.domain_targets_.resize(out.domain_offsets_.back());
  util::parallel_for(old_nd, [&](std::size_t d) {
    if (keep_domain[d] == 0) {
      return;
    }
    auto cursor = out.domain_offsets_[domain_map[d]];
    for (const auto m : graph.machines_of(static_cast<DomainId>(d))) {
      if (keep_machine[m] != 0) {
        out.domain_targets_[cursor++] = machine_map[m];
      }
    }
  });

  // Resolved-IP annotations.
  out.ip_offsets_.assign(nd + 1, 0);
  util::parallel_for(old_nd, [&](std::size_t d) {
    if (keep_domain[d] != 0) {
      out.ip_offsets_[domain_map[d] + 1] = graph.resolved_ips(static_cast<DomainId>(d)).size();
    }
  });
  for (std::size_t i = 1; i <= nd; ++i) {
    out.ip_offsets_[i] += out.ip_offsets_[i - 1];
  }
  out.resolved_ips_.resize(out.ip_offsets_.back());
  util::parallel_for(old_nd, [&](std::size_t d) {
    if (keep_domain[d] == 0) {
      return;
    }
    const auto ips = graph.resolved_ips(static_cast<DomainId>(d));
    std::copy(ips.begin(), ips.end(),
              out.resolved_ips_.begin() +
                  static_cast<std::ptrdiff_t>(out.ip_offsets_[domain_map[d]]));
  });

  out.rebuild_name_index();
  return out;
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
  obs::Span machine_span("prepare/prune/R1R2");
  std::vector<std::uint64_t> degrees(nm);
  util::parallel_for(nm, [&](std::size_t m) {
    degrees[m] = graph.domains_of(static_cast<MachineId>(m)).size();
  });
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

  // --- R1 + R2: machine keep mask. Per-chunk counters are reduced in chunk
  // order; the totals are partition-independent.
  struct MachineChunkStats {
    std::size_t removed_r1 = 0;
    std::size_t removed_r2 = 0;
    std::size_t kept_by_exception = 0;
  };
  std::vector<std::uint8_t> keep_machine(nm, 1);
  std::vector<MachineChunkStats> machine_chunks(util::default_chunk_count(nm));
  util::parallel_chunks(nm, machine_chunks.size(),
                        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
    auto& acc = machine_chunks[chunk];
    for (std::size_t i = begin; i < end; ++i) {
      const auto m = static_cast<MachineId>(i);
      const bool is_malware = graph.machine_label(m) == Label::kMalware;
      if (degrees[m] <= config.inactive_machine_max_degree) {
        if (is_malware) {
          ++acc.kept_by_exception;  // R1 exception
        } else {
          keep_machine[m] = 0;
          ++acc.removed_r1;
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
        ++acc.removed_r2;
      }
    }
  });
  for (const auto& acc : machine_chunks) {
    s.machines_removed_r1 += acc.removed_r1;
    s.machines_removed_r2 += acc.removed_r2;
    s.malware_machines_kept_by_exception += acc.kept_by_exception;
  }
  machine_span.close();

  // --- Domain degrees over surviving machines.
  obs::Span domain_span("prepare/prune/R3R4");
  std::vector<std::uint64_t> domain_degree(nd, 0);
  util::parallel_for(nd, [&](std::size_t i) {
    const auto d = static_cast<DomainId>(i);
    std::uint64_t degree = 0;
    for (const auto m : graph.machines_of(d)) {
      degree += keep_machine[m] != 0 ? 1 : 0;
    }
    domain_degree[d] = degree;
  });

  // --- R4 threshold and per-e2LD distinct machine counts.
  const auto theta_m = static_cast<std::uint64_t>(
      std::ceil(config.popular_e2ld_fraction * static_cast<double>(graph.machine_count())));
  s.theta_m = theta_m;

  // Group domains by e2LD, then count distinct surviving machines per group
  // using a last-seen stamp per machine. Each chunk of e2LDs carries its own
  // stamp array, so chunks run concurrently and every e2LD's count is
  // computed exactly as in the serial pass (O(edges) overall per chunk set).
  std::vector<std::vector<DomainId>> by_e2ld(graph.e2ld_count());
  for (DomainId d = 0; d < nd; ++d) {
    by_e2ld[graph.domain_e2ld(d)].push_back(d);
  }
  std::vector<std::uint64_t> e2ld_machines(graph.e2ld_count(), 0);
  util::parallel_chunks(graph.e2ld_count(), 0,
                        [&](std::size_t, std::size_t begin, std::size_t end) {
    std::vector<std::uint32_t> stamp(nm, 0xffffffffu);
    for (std::size_t e = begin; e < end; ++e) {
      std::uint64_t count = 0;
      for (const auto d : by_e2ld[e]) {
        for (const auto m : graph.machines_of(d)) {
          if (keep_machine[m] != 0 && stamp[m] != e) {
            stamp[m] = static_cast<std::uint32_t>(e);
            ++count;
          }
        }
      }
      e2ld_machines[e] = count;
    }
  });

  // --- R3 + R4: domain keep mask.
  struct DomainChunkStats {
    std::size_t removed_r3 = 0;
    std::size_t removed_r4 = 0;
    std::size_t kept_by_exception = 0;
  };
  std::vector<std::uint8_t> keep_domain(nd, 1);
  std::vector<DomainChunkStats> domain_chunks(util::default_chunk_count(nd));
  util::parallel_chunks(nd, domain_chunks.size(),
                        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
    auto& acc = domain_chunks[chunk];
    for (std::size_t i = begin; i < end; ++i) {
      const auto d = static_cast<DomainId>(i);
      const bool is_malware = graph.domain_label(d) == Label::kMalware;
      if (e2ld_machines[graph.domain_e2ld(d)] >= theta_m) {
        keep_domain[d] = 0;  // R4: no exception
        ++acc.removed_r4;
        continue;
      }
      if (domain_degree[d] < config.min_domain_machines) {
        if (is_malware && domain_degree[d] > 0) {
          ++acc.kept_by_exception;  // R3 exception
        } else {
          keep_domain[d] = 0;
          ++acc.removed_r3;
        }
      }
    }
  });
  for (const auto& acc : domain_chunks) {
    s.domains_removed_r3 += acc.removed_r3;
    s.domains_removed_r4 += acc.removed_r4;
    s.malware_domains_kept_by_exception += acc.kept_by_exception;
  }
  domain_span.close();

  SEG_SPAN("prepare/prune/compact");
  MachineDomainGraph out = prune_impl(graph, keep_machine, keep_domain);
  s.machines_after = out.machine_count();
  s.domains_after = out.domain_count();
  s.edges_after = out.edge_count();
  return out;
}

}  // namespace seg::graph
