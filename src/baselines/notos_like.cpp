#include "baselines/notos_like.h"

#include <algorithm>
#include <cmath>

#include "util/require.h"

namespace seg::baselines {

namespace {

const std::vector<std::string>& notos_feature_names() {
  static const std::vector<std::string> names = {
      "name_length",     "num_labels",       "digit_fraction", "hyphen_count",
      "char_entropy",    "e2ld_age_days",    "e2ld_active_30", "ip_malware_fraction",
      "prefix_malware_fraction", "resolved_ip_count"};
  return names;
}

double character_entropy(std::string_view name) {
  std::array<std::size_t, 256> counts{};
  std::size_t total = 0;
  for (const char c : name) {
    if (c == '.') {
      continue;
    }
    ++counts[static_cast<unsigned char>(c)];
    ++total;
  }
  if (total == 0) {
    return 0.0;
  }
  double entropy = 0.0;
  for (const auto count : counts) {
    if (count == 0) {
      continue;
    }
    const double p = static_cast<double>(count) / static_cast<double>(total);
    entropy -= p * std::log2(p);
  }
  return entropy;
}

}  // namespace

NotosLikeClassifier::NotosLikeClassifier(NotosConfig config) : config_(config) {}

std::array<double, kNotosFeatureCount> NotosLikeClassifier::measure(
    const graph::GraphView& graph, graph::DomainId d,
    const dns::DomainActivityIndex& activity, const dns::PassiveDnsDb& pdns) const {
  std::array<double, kNotosFeatureCount> features{};
  const auto name = graph.domain_name(d);
  const auto e2ld = graph.e2ld_name(graph.domain_e2ld(d));
  const dns::Day t_now = graph.day();

  // String statistics.
  features[0] = static_cast<double>(name.size());
  features[1] = static_cast<double>(1 + std::count(name.begin(), name.end(), '.'));
  const auto digits = std::count_if(name.begin(), name.end(),
                                    [](char c) { return c >= '0' && c <= '9'; });
  features[2] = static_cast<double>(digits) / static_cast<double>(name.size());
  features[3] = static_cast<double>(std::count(name.begin(), name.end(), '-'));
  features[4] = character_entropy(name);

  // Zone history.
  const auto first_seen = activity.first_seen(e2ld);
  features[5] = !first_seen.has_value()
                    ? 0.0
                    : std::min(365.0, static_cast<double>(t_now - *first_seen));
  features[6] = activity.active_days(e2ld, t_now - 29, t_now);

  // Network evidence.
  const auto ips = graph.resolved_ips(d);
  if (!ips.empty()) {
    const dns::Day from = t_now - config_.pdns_window_days;
    const dns::Day to = t_now - 1;
    std::size_t ip_malware = 0;
    std::size_t prefix_malware = 0;
    for (const auto ip : ips) {
      ip_malware += pdns.ip_malware_associated(ip, from, to) ? 1 : 0;
      prefix_malware += pdns.prefix_malware_associated(ip, from, to) ? 1 : 0;
    }
    features[7] = static_cast<double>(ip_malware) / static_cast<double>(ips.size());
    features[8] = static_cast<double>(prefix_malware) / static_cast<double>(ips.size());
  }
  features[9] = static_cast<double>(ips.size());
  return features;
}

bool NotosLikeClassifier::rejects(const graph::GraphView& graph, graph::DomainId d,
                                  const dns::DomainActivityIndex& activity,
                                  const dns::PassiveDnsDb& pdns) const {
  const auto e2ld = graph.e2ld_name(graph.domain_e2ld(d));
  const dns::Day t_now = graph.day();
  const auto first_seen = activity.first_seen(e2ld);
  const bool young_zone =
      !first_seen.has_value() || (t_now - *first_seen) < config_.min_history_days;
  if (!young_zone) {
    return false;
  }
  // Young zone: classify anyway only when the *exact* resolved addresses
  // carry labeled reputation history. Sightings of other unknown domains
  // on the address are not reputation evidence, and neighbors in the /24
  // are not enough to build a reputation for this domain.
  const dns::Day from = t_now - config_.pdns_window_days;
  const dns::Day to = t_now - 1;
  for (const auto ip : graph.resolved_ips(d)) {
    if (pdns.ip_malware_associated(ip, from, to)) {
      return false;
    }
  }
  return true;
}

void NotosLikeClassifier::train(const graph::GraphView& graph,
                                const dns::DomainActivityIndex& activity,
                                const dns::PassiveDnsDb& pdns, const graph::NameSet& blacklist,
                                const graph::NameSet& whitelist_e2lds) {
  ml::Dataset dataset(notos_feature_names());
  for (graph::DomainId d = 0; d < graph.domain_count(); ++d) {
    const auto name = graph.domain_name(d);
    const auto e2ld = graph.e2ld_name(graph.domain_e2ld(d));
    int label;
    if (blacklist.contains(name)) {
      label = 1;
    } else if (whitelist_e2lds.contains(e2ld)) {
      label = 0;
    } else {
      continue;
    }
    dataset.add_row(measure(graph, d, activity, pdns), label);
  }
  util::require(dataset.count_label(0) > 0 && dataset.count_label(1) > 0,
                "NotosLikeClassifier::train: need both classes in the training graph");
  forest_ = std::make_unique<ml::RandomForest>(config_.forest);
  forest_->train(dataset);
}

bool NotosLikeClassifier::is_trained() const {
  return forest_ != nullptr && forest_->is_trained();
}

std::optional<double> NotosLikeClassifier::score(const graph::GraphView& graph,
                                                 graph::DomainId d,
                                                 const dns::DomainActivityIndex& activity,
                                                 const dns::PassiveDnsDb& pdns) const {
  util::require(is_trained(), "NotosLikeClassifier::score: not trained");
  if (rejects(graph, d, activity, pdns)) {
    return std::nullopt;
  }
  return forest_->predict_proba(measure(graph, d, activity, pdns));
}

}  // namespace seg::baselines
