// Figure 11 reproduction: early detection of malware-control domains.
//
// Four consecutive days from each ISP (8 train/detect days total). Each
// day Segugio trains on the day's traffic with the detection threshold set
// for <= 0.1% FPs (calibrated on the day's own known domains with hidden
// labels), classifies the still-unknown domains, and files detections. A
// detection is confirmed when the commercial blacklist adds the domain
// within the following 35 days; the histogram of (blacklist day −
// detection day) is the figure. Paper: 38 confirmed domains over 8 days,
// many confirmed days or weeks later.
#include <cstdio>
#include <map>
#include <string>

#include "bench_common.h"
#include "core/calibration.h"
#include "core/pipeline.h"
#include "util/histogram.h"

int main() {
  using namespace seg;
  bench::print_header("Figure 11: early detection vs. the blacklist");

  auto& world = bench::bench_world();
  const auto config = bench::bench_config();
  constexpr dns::Day kLookahead = 35;
  constexpr double kFprBudget = 0.001;

  std::map<std::string, dns::Day> flagged;  // first detection day
  for (std::size_t isp = 0; isp < world.isp_count(); ++isp) {
    // One streaming session per ISP: the pipeline carries the detector
    // across the four days and reads the world's history stores.
    core::Pipeline pipeline(world.psl(), world.activity(), world.pdns(), config);
    for (dns::Day day = 10; day <= 13; ++day) {
      const auto trace = world.generate_day(isp, day);
      const auto blacklist = world.blacklist().as_of(sim::BlacklistKind::kCommercial, day);
      core::PreparedDay prepared;
      dns::DayTraceSource source(trace);
      pipeline.ingest_stream(
          source, [&](dns::Day) -> const graph::NameSet& { return blacklist; },
          world.whitelist().all(),
          [&](core::PreparedDay&& ingested) { prepared = std::move(ingested); });
      const auto& graph = prepared.graph;
      pipeline.train(prepared);

      // Calibrate the threshold on the training day's known domains.
      const double threshold =
          core::calibrate_threshold(pipeline.detector(), graph, pipeline.activity(),
                                    pipeline.pdns(), kFprBudget)
              .threshold;

      const auto report = pipeline.classify(prepared);
      std::size_t new_flags = 0;
      for (const auto& scored : report.scores) {
        if (scored.score >= threshold && !flagged.contains(scored.name)) {
          flagged.emplace(scored.name, day);
          ++new_flags;
        }
      }
      std::printf("ISP%zu day %d: threshold %.3f, %zu unknown domains, %zu new detections\n",
                  isp + 1, day, threshold, report.scores.size(), new_flags);
    }
  }

  util::Histogram gaps;
  std::size_t confirmed = 0;
  std::size_t flagged_true_malware = 0;
  for (const auto& [name, detect_day] : flagged) {
    if (world.is_true_malware(name)) {
      ++flagged_true_malware;
    }
    const auto listed = world.blacklist().listed_day(name, sim::BlacklistKind::kCommercial);
    if (listed.has_value() && *listed > detect_day && *listed <= detect_day + kLookahead) {
      ++confirmed;
      gaps.add(static_cast<std::uint64_t>(*listed - detect_day));
    }
  }
  std::printf("\ndetections filed: %zu (of which %zu are true malware-control domains)\n",
              flagged.size(), flagged_true_malware);
  std::printf("confirmed by the blacklist within %d days: %zu (paper: 38)\n", kLookahead,
              confirmed);
  std::printf("\nhistogram: days between Segugio's detection and blacklist inclusion\n");
  std::printf("%s", gaps.render(20, 40).c_str());
  if (!gaps.empty()) {
    std::printf("median lead time: %llu days; max: %llu days\n",
                static_cast<unsigned long long>(gaps.quantile(0.5)),
                static_cast<unsigned long long>(gaps.max_value()));
  }
  return 0;
}
