// The machine-domain bipartite behavior graph (Section II-A1).
//
// Nodes are machines and fully-qualified domain names; an edge connects
// machine m to domain d when m queried d during the observation window T.
// Domain nodes are annotated with the set of IPs they resolved to during T
// and with their effective 2LD (used by pruning rule R4, by whitelist
// labeling, and by the F2 features).
//
// The graph is immutable once built; both adjacency directions are stored
// in CSR form so per-domain feature extraction (domain -> machines) and
// machine labeling (machine -> domains) are both O(degree).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dns/ip.h"
#include "dns/public_suffix_list.h"
#include "dns/query_log.h"
#include "graph/labels.h"
#include "util/hash.h"

namespace seg::graph {

using MachineId = std::uint32_t;
using DomainId = std::uint32_t;
using E2ldId = std::uint32_t;

class GraphView;

class MachineDomainGraph {
 public:
  std::size_t machine_count() const { return machine_names_.size(); }
  std::size_t domain_count() const { return domain_names_.size(); }
  std::size_t edge_count() const { return machine_targets_.size(); }
  std::size_t e2ld_count() const { return e2ld_names_.size(); }

  std::string_view machine_name(MachineId m) const { return machine_names_[m]; }
  std::string_view domain_name(DomainId d) const { return domain_names_[d]; }

  E2ldId domain_e2ld(DomainId d) const { return domain_e2ld_[d]; }
  std::string_view e2ld_name(E2ldId e) const { return e2ld_names_[e]; }

  /// Distinct domains queried by machine m, ascending by id.
  std::span<const DomainId> domains_of(MachineId m) const;

  /// Distinct machines that queried domain d, ascending by id.
  std::span<const MachineId> machines_of(DomainId d) const;

  /// IPs the domain resolved to during the observation window.
  std::span<const dns::IpV4> resolved_ips(DomainId d) const;

  Label machine_label(MachineId m) const { return machine_labels_[m]; }
  Label domain_label(DomainId d) const { return domain_labels_[d]; }

  void set_machine_label(MachineId m, Label label) { machine_labels_[m] = label; }
  void set_domain_label(DomainId d, Label label) { domain_labels_[d] = label; }

  /// The day the graph's traffic was observed on (t_now for features).
  dns::Day day() const { return day_; }

  /// Looks up a domain id by name; returns domain_count() when absent. O(1):
  /// the builder's interning maps are retained in the built graph.
  DomainId find_domain(std::string_view name) const;

  /// Looks up a machine id by name; returns machine_count() when absent.
  MachineId find_machine(std::string_view name) const;

  /// Count of domain/machine nodes carrying each label.
  std::size_t count_domains_with(Label label) const;
  std::size_t count_machines_with(Label label) const;

  /// A backing-agnostic read view over this graph (graph_view.h). The view
  /// references this graph's storage and must not outlive it.
  GraphView view() const;

 private:
  friend class GraphBuilder;
  friend MachineDomainGraph prune_impl(const GraphView&,
                                       const std::vector<std::uint8_t>&,
                                       const std::vector<std::uint8_t>&);

  /// Rebuilds machine_index_/domain_index_ from the name vectors; called
  /// when a graph is assembled without going through a builder (pruning).
  void rebuild_name_index();

  dns::Day day_ = 0;

  std::vector<std::string> machine_names_;
  std::vector<std::string> domain_names_;
  std::vector<std::string> e2ld_names_;
  std::vector<E2ldId> domain_e2ld_;

  // CSR adjacency, both directions.
  std::vector<std::uint64_t> machine_offsets_;
  std::vector<DomainId> machine_targets_;
  std::vector<std::uint64_t> domain_offsets_;
  std::vector<MachineId> domain_targets_;

  // Per-domain resolved IP sets (CSR).
  std::vector<std::uint64_t> ip_offsets_;
  std::vector<dns::IpV4> resolved_ips_;

  std::vector<Label> machine_labels_;
  std::vector<Label> domain_labels_;

  // Name→id directory (find_machine / find_domain). Populated by the
  // builder (moved from its interning maps) or rebuilt after
  // pruning/loading; not serialized.
  util::StringMap<MachineId> machine_index_;
  util::StringMap<DomainId> domain_index_;
};

/// Accumulates query observations and produces an immutable graph.
///
/// Invalid domain names are skipped (and counted) rather than rejected:
/// real resolver logs contain garbage queries, and the paper's pipeline
/// only considers valid authoritative answers.
class GraphBuilder {
 public:
  /// `psl` is used to annotate each domain with its effective 2LD; it must
  /// outlive build().
  explicit GraphBuilder(const dns::PublicSuffixList& psl) : psl_(&psl) {}

  /// Adds one query observation. Duplicate (machine, domain) pairs collapse
  /// into a single edge; resolved IPs accumulate into the domain's IP set.
  void add_query(std::string_view machine, std::string_view qname,
                 std::span<const dns::IpV4> ips);

  /// Adds every record of a day trace. The graph's day becomes the latest
  /// trace day added, so multi-day observation windows (the paper's T,
  /// "e.g., one day") measure features relative to the window's end.
  void add_trace(const dns::DayTrace& trace);

  /// Number of records skipped because the queried name was invalid.
  std::size_t skipped_records() const { return skipped_; }

  /// Builds the immutable graph. The builder is left empty afterwards.
  MachineDomainGraph build();

 private:
  const dns::PublicSuffixList* psl_;
  dns::Day day_ = 0;

  util::StringMap<MachineId> machine_ids_;
  util::StringMap<DomainId> domain_ids_;
  std::vector<std::string> machine_names_;
  std::vector<std::string> domain_names_;

  std::vector<std::pair<MachineId, DomainId>> edges_;
  std::vector<std::vector<dns::IpV4>> domain_ips_;

  std::size_t skipped_ = 0;
};

/// Headline node/edge/label counts, as reported in Table I.
struct GraphStats {
  std::size_t machines = 0;
  std::size_t domains = 0;
  std::size_t edges = 0;
  std::size_t benign_domains = 0;
  std::size_t malware_domains = 0;
  std::size_t unknown_domains = 0;
  std::size_t benign_machines = 0;
  std::size_t malware_machines = 0;
  std::size_t unknown_machines = 0;
};

GraphStats compute_stats(const MachineDomainGraph& graph);

}  // namespace seg::graph
