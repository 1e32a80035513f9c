#include "features/extractor.h"

#include <algorithm>

#include "util/require.h"

namespace seg::features {

FeatureExtractor::FeatureExtractor(graph::GraphView graph,
                                   const dns::DomainActivityIndex& activity,
                                   const dns::PassiveDnsDb& pdns, FeatureConfig config)
    : graph_(graph), activity_(&activity), pdns_(&pdns), config_(config) {
  util::require(config_.activity_window_days > 0,
                "FeatureExtractor: activity window must be positive");
  util::require(config_.pdns_window_days > 0, "FeatureExtractor: pDNS window must be positive");
  precompute_machine_degrees();
}

void FeatureExtractor::precompute_machine_degrees() {
  machine_malware_degree_.assign(graph_.machine_count(), 0);
  for (graph::MachineId m = 0; m < graph_.machine_count(); ++m) {
    std::uint32_t count = 0;
    for (const auto d : graph_.domains_of(m)) {
      count += graph_.domain_label(d) == graph::Label::kMalware ? 1 : 0;
    }
    machine_malware_degree_[m] = count;
  }
}

FeatureVector FeatureExtractor::extract(graph::DomainId d) const {
  return extract_impl(d, /*hide_label=*/false);
}

FeatureVector FeatureExtractor::extract_hiding_label(graph::DomainId d) const {
  return extract_impl(d, /*hide_label=*/true);
}

FeatureVector FeatureExtractor::extract_impl(graph::DomainId d, bool hide_label) const {
  util::require(d < graph_.domain_count(), "FeatureExtractor: domain id out of range");
  FeatureVector features{};

  const bool domain_is_malware = graph_.domain_label(d) == graph::Label::kMalware;

  // --- F1: machine behavior. Every machine in S queries d; when d is (or
  // is treated as) unknown, none of them can be benign-labeled, so each is
  // either known-infected or unknown.
  const auto machines = graph_.machines_of(d);
  std::size_t infected = 0;
  for (const auto m : machines) {
    std::uint32_t malware_degree = machine_malware_degree_[m];
    if (hide_label && domain_is_malware) {
      // Hiding d's label removes it from every querying machine's malware
      // evidence (Figure 5: M1 flips to unknown when d was its only one).
      --malware_degree;
    }
    infected += malware_degree > 0 ? 1 : 0;
  }
  const auto total = machines.size();
  if (total > 0) {
    features[kInfectedFraction] = static_cast<double>(infected) / static_cast<double>(total);
    features[kUnknownFraction] =
        static_cast<double>(total - infected) / static_cast<double>(total);
  }
  features[kTotalMachines] = static_cast<double>(total);

  // --- F2: domain activity over [t_now - n + 1, t_now].
  const dns::Day t_now = graph_.day();
  const dns::Day from = t_now - config_.activity_window_days + 1;
  const auto fqdn = graph_.domain_name(d);
  const auto e2ld = graph_.e2ld_name(graph_.domain_e2ld(d));
  features[kFqdnActiveDays] = activity_->active_days(fqdn, from, t_now);
  features[kFqdnConsecutiveDays] = activity_->consecutive_days_ending(fqdn, t_now);
  features[kE2ldActiveDays] = activity_->active_days(e2ld, from, t_now);
  features[kE2ldConsecutiveDays] = activity_->consecutive_days_ending(e2ld, t_now);

  // --- F3: IP abuse over the W days strictly before t_now.
  const dns::Day w_from = t_now - config_.pdns_window_days;
  const dns::Day w_to = t_now - 1;
  const auto ips = graph_.resolved_ips(d);
  if (!ips.empty()) {
    std::size_t ip_malware = 0;
    std::size_t ip_unknown = 0;
    for (const auto ip : ips) {
      ip_malware += pdns_->ip_malware_associated(ip, w_from, w_to) ? 1 : 0;
      ip_unknown += pdns_->ip_unknown_associated(ip, w_from, w_to) ? 1 : 0;
    }
    // Distinct /24 prefixes of A.
    std::vector<std::uint32_t> prefixes;
    prefixes.reserve(ips.size());
    for (const auto ip : ips) {
      prefixes.push_back(ip.prefix24());
    }
    std::sort(prefixes.begin(), prefixes.end());
    prefixes.erase(std::unique(prefixes.begin(), prefixes.end()), prefixes.end());
    std::size_t prefix_malware = 0;
    std::size_t prefix_unknown = 0;
    for (const auto prefix : prefixes) {
      const dns::IpV4 representative(prefix);
      prefix_malware += pdns_->prefix_malware_associated(representative, w_from, w_to) ? 1 : 0;
      prefix_unknown += pdns_->prefix_unknown_associated(representative, w_from, w_to) ? 1 : 0;
    }
    features[kIpMalwareFraction] =
        static_cast<double>(ip_malware) / static_cast<double>(ips.size());
    features[kPrefixMalwareFraction] =
        static_cast<double>(prefix_malware) / static_cast<double>(prefixes.size());
    features[kIpUnknownCount] = static_cast<double>(ip_unknown);
    features[kPrefixUnknownCount] = static_cast<double>(prefix_unknown);
  }
  return features;
}

}  // namespace seg::features
