#include "util/obs/drift.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "util/obs/metrics.h"
#include "util/require.h"

namespace seg::obs {

namespace {

// Smoothed bucket proportions: 0.5 pseudo-count per bucket keeps the log
// ratio finite when one side has an empty bucket.
std::vector<double> smoothed_proportions(const JournalHistogram& histogram) {
  const std::size_t buckets = histogram.buckets.size();
  const double denom =
      static_cast<double>(histogram.count) + 0.5 * static_cast<double>(buckets);
  std::vector<double> proportions(buckets);
  for (std::size_t i = 0; i < buckets; ++i) {
    proportions[i] = (static_cast<double>(histogram.buckets[i]) + 0.5) / denom;
  }
  return proportions;
}

void require_same_shape(const JournalHistogram& baseline, const JournalHistogram& current,
                        std::string_view what) {
  util::require(baseline.bounds == current.bounds &&
                    baseline.buckets.size() == current.buckets.size(),
                std::string(what) + ": histograms have different bounds");
}

/// "f1_infected_fraction" -> "f1"; empty when the name has no f<digit>_
/// group prefix.
std::string group_prefix(std::string_view name) {
  if (name.size() >= 3 && name[0] == 'f' && name[1] >= '0' && name[1] <= '9' &&
      name[2] == '_') {
    return std::string(name.substr(0, 2));
  }
  return {};
}

void maybe_alert(DriftResult& result, std::string_view gauge, double value,
                 double threshold) {
  if (value > threshold) {
    result.alerts.push_back({"seg_drift_" + std::string(gauge), value, threshold});
  }
}

}  // namespace

const double* DriftResult::find_gauge(std::string_view name) const {
  for (const auto& [key, value] : gauges) {
    if (key == name) {
      return &value;
    }
  }
  return nullptr;
}

double psi(const JournalHistogram& baseline, const JournalHistogram& current) {
  require_same_shape(baseline, current, "psi");
  const std::vector<double> p = smoothed_proportions(baseline);
  const std::vector<double> q = smoothed_proportions(current);
  double total = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    total += (q[i] - p[i]) * std::log(q[i] / p[i]);
  }
  return total;
}

double ks_statistic(const JournalHistogram& baseline, const JournalHistogram& current) {
  require_same_shape(baseline, current, "ks_statistic");
  if (baseline.count == 0 || current.count == 0) {
    return 0.0;
  }
  double cdf_p = 0.0;
  double cdf_q = 0.0;
  double max_gap = 0.0;
  for (std::size_t i = 0; i < baseline.buckets.size(); ++i) {
    cdf_p += static_cast<double>(baseline.buckets[i]) / static_cast<double>(baseline.count);
    cdf_q += static_cast<double>(current.buckets[i]) / static_cast<double>(current.count);
    const double gap = std::fabs(cdf_p - cdf_q);
    max_gap = gap > max_gap ? gap : max_gap;
  }
  return max_gap;
}

DriftResult compute_drift(const JournalEntry& baseline, const JournalEntry& current,
                          const DriftThresholds& thresholds) {
  DriftResult result;

  const JournalHistogram* base_scores = baseline.find_histogram("scores");
  const JournalHistogram* cur_scores = current.find_histogram("scores");
  if (base_scores && cur_scores && base_scores->bounds == cur_scores->bounds) {
    const double score_psi = psi(*base_scores, *cur_scores);
    const double score_ks = ks_statistic(*base_scores, *cur_scores);
    result.gauges.emplace_back("score_psi", score_psi);
    result.gauges.emplace_back("score_ks", score_ks);
    maybe_alert(result, "score_psi", score_psi, thresholds.score_psi);
    maybe_alert(result, "score_ks", score_ks, thresholds.score_ks);
  }

  // Per-feature PSI over every shared non-score histogram, in the current
  // entry's insertion order, with per-group (f1/f2/f3) means aggregated in
  // first-seen group order.
  std::vector<std::pair<std::string, std::pair<double, std::size_t>>> groups;
  for (const auto& [name, cur_hist] : current.histograms) {
    if (name == "scores") {
      continue;
    }
    const JournalHistogram* base_hist = baseline.find_histogram(name);
    if (!base_hist || base_hist->bounds != cur_hist.bounds) {
      continue;
    }
    const double feature_psi = psi(*base_hist, cur_hist);
    result.gauges.emplace_back("psi_" + name, feature_psi);
    const std::string group = group_prefix(name);
    if (!group.empty()) {
      bool found = false;
      for (auto& [key, accum] : groups) {
        if (key == group) {
          accum.first += feature_psi;
          ++accum.second;
          found = true;
          break;
        }
      }
      if (!found) {
        groups.emplace_back(group, std::make_pair(feature_psi, std::size_t{1}));
      }
    }
  }
  for (const auto& [group, accum] : groups) {
    const double mean_psi = accum.first / static_cast<double>(accum.second);
    result.gauges.emplace_back("group_psi_" + group, mean_psi);
    maybe_alert(result, "group_psi_" + group, mean_psi, thresholds.feature_psi);
  }

  const double* base_threshold = baseline.find_gauge("calibration_threshold");
  const double* cur_threshold = current.find_gauge("calibration_threshold");
  if (base_threshold && cur_threshold) {
    const double delta = std::fabs(*cur_threshold - *base_threshold);
    result.gauges.emplace_back("calibration_delta", delta);
    maybe_alert(result, "calibration_delta", delta, thresholds.calibration_delta);
  }

  return result;
}

void export_drift(const DriftResult& result, std::string_view prefix) {
  Registry& registry = Registry::instance();
  for (const auto& [name, value] : result.gauges) {
    registry.gauge(std::string(prefix) + "_" + name).set(value);
  }
  if (!result.alerts.empty()) {
    registry.counter(std::string(prefix) + "_alerts_total").add(result.alerts.size());
    for (const JournalAlert& alert : result.alerts) {
      std::fprintf(stderr, "drift alert: %s = %g exceeds threshold %g\n",
                   alert.gauge.c_str(), alert.value, alert.threshold);
    }
  }
}

}  // namespace seg::obs
