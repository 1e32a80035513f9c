// Backing-agnostic read view of a behavior graph.
//
// GraphView serves the same const accessors as MachineDomainGraph —
// adjacency in both directions, resolved-IP sets, e2LD annotations,
// labels — as a non-owning bundle of spans. Two backings produce views:
//
//   - MachineDomainGraph::view() over the heap-resident vectors;
//   - graph::map_graph() over a memory-mapped `segf1 graphc` packed file
//     (graph_compressed.h), where every accessor reads the mapping
//     directly — zero-copy load.
//
// Pruning, feature extraction, training, and classification take a
// `const GraphView&` and nothing else, so they run identically over either
// backing; a heap graph converts implicitly. The score bit-identity is
// asserted by tests/core/mmap_backing_test.cpp and
// tests/core/pipeline_test.cpp. A view never outlives its backing (the
// graph object or the MappedGraph).
//
// Names come through NameTableView, which serves string_views either from
// an array of std::string (heap graphs) or from an offsets+blob pair (the
// packed file's name sections) — one branch per access, no copies.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "dns/ip.h"
#include "dns/types.h"
#include "graph/graph.h"
#include "graph/labels.h"
#include "util/require.h"

namespace seg::graph {

/// Read-only name table over either owned strings or a mapped blob.
class NameTableView {
 public:
  NameTableView() = default;

  static NameTableView from_strings(std::span<const std::string> names) {
    NameTableView table;
    table.strings_ = names.data();
    table.count_ = names.size();
    return table;
  }

  /// `offsets` has count + 1 entries delimiting each name's bytes in `blob`.
  static NameTableView from_blob(const char* blob, const std::uint64_t* offsets,
                                 std::size_t count) {
    NameTableView table;
    table.blob_ = blob;
    table.offsets_ = offsets;
    table.count_ = count;
    return table;
  }

  std::string_view operator[](std::size_t i) const {
    if (strings_ != nullptr) {
      return strings_[i];
    }
    return {blob_ + offsets_[i], static_cast<std::size_t>(offsets_[i + 1] - offsets_[i])};
  }

  std::size_t size() const { return count_; }

 private:
  const std::string* strings_ = nullptr;
  const char* blob_ = nullptr;
  const std::uint64_t* offsets_ = nullptr;
  std::size_t count_ = 0;
};

class GraphView {
 public:
  GraphView() = default;

  /// Implicit, like std::string -> std::string_view: every function taking
  /// a `const GraphView&` serves heap graphs and mapped graphs alike. The
  /// view borrows `graph`'s storage and must not outlive it.
  GraphView(const MachineDomainGraph& graph) : GraphView(graph.view()) {}

  std::size_t machine_count() const { return machine_names_.size(); }
  std::size_t domain_count() const { return domain_names_.size(); }
  std::size_t edge_count() const { return machine_targets_.size(); }
  std::size_t e2ld_count() const { return e2ld_names_.size(); }

  std::string_view machine_name(MachineId m) const { return machine_names_[m]; }
  std::string_view domain_name(DomainId d) const { return domain_names_[d]; }
  E2ldId domain_e2ld(DomainId d) const { return domain_e2ld_[d]; }
  std::string_view e2ld_name(E2ldId e) const { return e2ld_names_[e]; }

  std::span<const DomainId> domains_of(MachineId m) const {
    util::require(m < machine_count(), "domains_of: machine id out of range");
    return machine_targets_.subspan(machine_offsets_[m],
                                    machine_offsets_[m + 1] - machine_offsets_[m]);
  }

  std::span<const MachineId> machines_of(DomainId d) const {
    util::require(d < domain_count(), "machines_of: domain id out of range");
    return domain_targets_.subspan(domain_offsets_[d],
                                   domain_offsets_[d + 1] - domain_offsets_[d]);
  }

  std::span<const dns::IpV4> resolved_ips(DomainId d) const {
    util::require(d < domain_count(), "resolved_ips: domain id out of range");
    return resolved_ips_.subspan(ip_offsets_[d], ip_offsets_[d + 1] - ip_offsets_[d]);
  }

  Label machine_label(MachineId m) const { return machine_labels_[m]; }
  Label domain_label(DomainId d) const { return domain_labels_[d]; }

  dns::Day day() const { return day_; }

  std::size_t count_domains_with(Label label) const {
    std::size_t count = 0;
    for (const auto l : domain_labels_) {
      count += l == label ? 1 : 0;
    }
    return count;
  }

  std::size_t count_machines_with(Label label) const {
    std::size_t count = 0;
    for (const auto l : machine_labels_) {
      count += l == label ? 1 : 0;
    }
    return count;
  }

  // Raw section access for serializers (graph_compressed.cpp); ordinary
  // consumers use the per-node accessors above.
  NameTableView machine_names() const { return machine_names_; }
  NameTableView domain_names() const { return domain_names_; }
  NameTableView e2ld_names() const { return e2ld_names_; }
  std::span<const E2ldId> domain_e2ld_ids() const { return domain_e2ld_; }
  std::span<const std::uint64_t> machine_offsets() const { return machine_offsets_; }
  std::span<const DomainId> machine_targets() const { return machine_targets_; }
  std::span<const std::uint64_t> domain_offsets() const { return domain_offsets_; }
  std::span<const MachineId> domain_targets() const { return domain_targets_; }
  std::span<const std::uint64_t> ip_offsets() const { return ip_offsets_; }
  std::span<const dns::IpV4> resolved_ip_values() const { return resolved_ips_; }
  std::span<const Label> machine_labels() const { return machine_labels_; }
  std::span<const Label> domain_labels() const { return domain_labels_; }

 private:
  friend class MachineDomainGraph;
  friend GraphView make_packed_view(dns::Day day, NameTableView machines,
                                    NameTableView domains, NameTableView e2lds,
                                    std::span<const E2ldId> domain_e2ld,
                                    std::span<const std::uint64_t> machine_offsets,
                                    std::span<const DomainId> machine_targets,
                                    std::span<const std::uint64_t> domain_offsets,
                                    std::span<const MachineId> domain_targets,
                                    std::span<const std::uint64_t> ip_offsets,
                                    std::span<const dns::IpV4> resolved_ips,
                                    std::span<const Label> machine_labels,
                                    std::span<const Label> domain_labels);

  dns::Day day_ = 0;
  NameTableView machine_names_;
  NameTableView domain_names_;
  NameTableView e2ld_names_;
  std::span<const E2ldId> domain_e2ld_;
  std::span<const std::uint64_t> machine_offsets_;
  std::span<const DomainId> machine_targets_;
  std::span<const std::uint64_t> domain_offsets_;
  std::span<const MachineId> domain_targets_;
  std::span<const std::uint64_t> ip_offsets_;
  std::span<const dns::IpV4> resolved_ips_;
  std::span<const Label> machine_labels_;
  std::span<const Label> domain_labels_;
};

/// Assembles a view from raw section spans (graph_compressed.cpp's mapped
/// loader). Callers guarantee the usual CSR invariants.
inline GraphView make_packed_view(dns::Day day, NameTableView machines, NameTableView domains,
                                  NameTableView e2lds, std::span<const E2ldId> domain_e2ld,
                                  std::span<const std::uint64_t> machine_offsets,
                                  std::span<const DomainId> machine_targets,
                                  std::span<const std::uint64_t> domain_offsets,
                                  std::span<const MachineId> domain_targets,
                                  std::span<const std::uint64_t> ip_offsets,
                                  std::span<const dns::IpV4> resolved_ips,
                                  std::span<const Label> machine_labels,
                                  std::span<const Label> domain_labels) {
  GraphView view;
  view.day_ = day;
  view.machine_names_ = machines;
  view.domain_names_ = domains;
  view.e2ld_names_ = e2lds;
  view.domain_e2ld_ = domain_e2ld;
  view.machine_offsets_ = machine_offsets;
  view.machine_targets_ = machine_targets;
  view.domain_offsets_ = domain_offsets;
  view.domain_targets_ = domain_targets;
  view.ip_offsets_ = ip_offsets;
  view.resolved_ips_ = resolved_ips;
  view.machine_labels_ = machine_labels;
  view.domain_labels_ = domain_labels;
  return view;
}

inline GraphView MachineDomainGraph::view() const {
  GraphView v;
  v.day_ = day_;
  v.machine_names_ = NameTableView::from_strings(machine_names_);
  v.domain_names_ = NameTableView::from_strings(domain_names_);
  v.e2ld_names_ = NameTableView::from_strings(e2ld_names_);
  v.domain_e2ld_ = domain_e2ld_;
  v.machine_offsets_ = machine_offsets_;
  v.machine_targets_ = machine_targets_;
  v.domain_offsets_ = domain_offsets_;
  v.domain_targets_ = domain_targets_;
  v.ip_offsets_ = ip_offsets_;
  v.resolved_ips_ = resolved_ips_;
  v.machine_labels_ = machine_labels_;
  v.domain_labels_ = domain_labels_;
  return v;
}

}  // namespace seg::graph
