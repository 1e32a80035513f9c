// Node labeling from ground-truth sources (Section II-A1, Section III).
//
// Domains: a domain is labeled *malware* when its full name string matches
// the C&C blacklist; *benign* when its effective 2LD is in the whitelist of
// consistently popular e2LDs; *unknown* otherwise. The blacklist wins when
// both match (a blacklisted name under a whitelisted zone is still malware).
//
// Machines: a machine is *malware* when it queries at least one malware
// domain, *benign* when it queries exclusively benign domains, and
// *unknown* otherwise.
#pragma once

#include <string_view>

#include "graph/graph.h"
#include "util/hash.h"

namespace seg::graph {

/// A set of names with allocation-free string_view lookup.
class NameSet {
 public:
  NameSet() = default;

  void insert(std::string_view name) { names_.emplace(name); }
  bool contains(std::string_view name) const { return names_.contains(name); }
  std::size_t size() const { return names_.size(); }
  bool empty() const { return names_.empty(); }

  template <typename Range>
  static NameSet from(const Range& range) {
    NameSet set;
    for (const auto& name : range) {
      set.insert(name);
    }
    return set;
  }

  using const_iterator = util::StringSet::const_iterator;
  const_iterator begin() const { return names_.begin(); }
  const_iterator end() const { return names_.end(); }

 private:
  util::StringSet names_;
};

struct LabelingResult {
  std::size_t malware_domains = 0;
  std::size_t benign_domains = 0;
  std::size_t malware_machines = 0;
  std::size_t benign_machines = 0;
};

/// Applies domain labels from `cc_blacklist` (full-name match) and
/// `e2ld_whitelist` (e2LD match), then derives machine labels from their
/// query sets. Overwrites any existing labels.
LabelingResult apply_labels(MachineDomainGraph& graph, const NameSet& cc_blacklist,
                            const NameSet& e2ld_whitelist);

/// Recomputes only the machine labels from current domain labels (used after
/// a domain label changes, e.g. the training-set "hide" step).
void relabel_machines(MachineDomainGraph& graph);

/// The machine label implied by a machine's domain-label multiset:
/// malware if any queried domain is malware; benign if all are benign.
Label derive_machine_label(std::size_t degree, std::size_t malware_domains,
                           std::size_t benign_domains);

}  // namespace seg::graph
