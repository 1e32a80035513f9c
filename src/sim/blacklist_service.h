// Blacklist oracle with coverage and discovery lag.
//
// The paper labels ground truth from a commercial C&C blacklist (carefully
// vetted, with malware-family annotations) and, in Section IV-E, from a
// smaller set of public blacklists (lower coverage, some mislabeled
// entries). Both are views over the simulator's true malware-domain
// population: a domain enters a view only if that view "discovered" it
// (coverage), and only from its discovery day onward (lag) — the lag is
// what the early-detection experiment (Figure 11) measures against.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dns/types.h"
#include "graph/labeling.h"
#include "sim/ground_truth.h"
#include "util/hash.h"

namespace seg::sim {

enum class BlacklistKind { kCommercial, kPublic };

class BlacklistService {
 public:
  /// `domains` are the world's ground-truth records (copied; the service
  /// also owns the public list's noise entries).
  BlacklistService(std::vector<MalwareDomainInfo> domains,
                   std::vector<std::string> public_noise);

  /// Domains present in the given view as of (i.e. with discovery day <=)
  /// `day`. Public views include their noise entries on every day.
  graph::NameSet as_of(BlacklistKind kind, dns::Day day) const;

  /// Family of a blacklisted domain (commercial metadata). Empty for noise
  /// entries and unknown names.
  std::optional<FamilyId> family_of(std::string_view domain) const;

  /// Day the domain entered the view; nullopt when never discovered by it.
  std::optional<dns::Day> listed_day(std::string_view domain, BlacklistKind kind) const;

  /// All ground-truth records (for evaluation code that needs the truth).
  const std::vector<MalwareDomainInfo>& records() const { return records_; }

  /// Distinct families across all records.
  std::size_t family_count() const { return family_count_; }

 private:
  std::vector<MalwareDomainInfo> records_;
  std::vector<std::string> public_noise_;
  util::StringMap<std::size_t> index_;
  std::size_t family_count_ = 0;
};

}  // namespace seg::sim
