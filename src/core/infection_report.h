// Infected-machine enumeration (Section VI).
//
// "Segugio can detect both malware-control domains and the infected
// machines that query them at the same time. Therefore, infections can
// still be enumerated, thus allowing network administrators to track and
// remediate the compromised machines."
//
// This module turns a day's detections into a remediation worklist: every
// machine that queried a known (blacklisted) or newly detected
// malware-control domain, with the evidence that implicates it.
#pragma once

#include <string>
#include <vector>

#include "core/segugio.h"

namespace seg::core {

/// One machine implicated by malware-control traffic.
struct InfectedMachine {
  std::string name;
  /// Known (blacklisted) malware domains the machine queried.
  std::vector<std::string> known_domains;
  /// Newly detected (previously unknown) domains it queried, with scores.
  std::vector<DomainScore> detected_domains;

  /// Evidence strength: number of distinct implicating domains.
  std::size_t evidence() const { return known_domains.size() + detected_domains.size(); }
};

struct InfectionReport {
  /// Implicated machines, strongest evidence first.
  std::vector<InfectedMachine> machines;

  /// Machines implicated only by newly detected domains (i.e. infections a
  /// blacklist-based workflow would have missed today).
  std::size_t newly_implicated = 0;
};

/// Builds the remediation report from a labeled graph and the day's
/// detection output at `threshold`.
InfectionReport enumerate_infections(const graph::GraphView& graph,
                                     const DetectionReport& detections, double threshold);

}  // namespace seg::core
