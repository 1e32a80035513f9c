#include "core/infection_report.h"

#include <algorithm>
#include <unordered_map>

namespace seg::core {

InfectionReport enumerate_infections(const graph::GraphView& graph,
                                     const DetectionReport& detections, double threshold) {
  // machine id -> accumulating entry
  std::unordered_map<graph::MachineId, InfectedMachine> by_machine;

  // Known infections: machines querying blacklist-labeled domains.
  for (graph::DomainId d = 0; d < graph.domain_count(); ++d) {
    if (graph.domain_label(d) != graph::Label::kMalware) {
      continue;
    }
    for (const auto m : graph.machines_of(d)) {
      auto& entry = by_machine[m];
      if (entry.name.empty()) {
        entry.name = graph.machine_name(m);
      }
      entry.known_domains.emplace_back(graph.domain_name(d));
    }
  }

  // New detections extend the worklist.
  std::unordered_map<graph::MachineId, bool> known_before;
  for (const auto& [m, entry] : by_machine) {
    known_before.emplace(m, true);
  }
  for (const auto& scored : detections.scores) {
    if (scored.score < threshold) {
      continue;
    }
    for (const auto m : graph.machines_of(scored.id)) {
      auto& entry = by_machine[m];
      if (entry.name.empty()) {
        entry.name = graph.machine_name(m);
      }
      entry.detected_domains.push_back(scored);
    }
  }

  InfectionReport report;
  report.machines.reserve(by_machine.size());
  for (auto& [m, entry] : by_machine) {
    if (!known_before.contains(m)) {
      ++report.newly_implicated;
    }
    std::sort(entry.detected_domains.begin(), entry.detected_domains.end(),
              [](const DomainScore& a, const DomainScore& b) { return a.score > b.score; });
    std::sort(entry.known_domains.begin(), entry.known_domains.end());
    report.machines.push_back(std::move(entry));
  }
  std::sort(report.machines.begin(), report.machines.end(),
            [](const InfectedMachine& a, const InfectedMachine& b) {
              if (a.evidence() != b.evidence()) {
                return a.evidence() > b.evidence();
              }
              return a.name < b.name;
            });
  return report;
}

}  // namespace seg::core
