// ISP deployment walkthrough on the synthetic ISP world.
//
// Mirrors the paper's operational story (Section II, Figure 2) as a
// streaming multi-day session: one core::Pipeline reads the history stores
// and owns the detector, ingests a day of resolver traffic,
// trains, then ingests and classifies the next day's *unknown* domains,
// reporting the detected malware-control domains together with the
// infected machines that query them and the pipeline timing breakdown
// (Section IV-G).
//
// Build & run:  ./build/examples/isp_deployment
#include <algorithm>
#include <cstdio>

#include "core/pipeline.h"
#include "sim/world.h"
#include "util/obs/trace.h"

int main() {
  using namespace seg;

  sim::World world{sim::ScenarioConfig::small()};
  const auto& whitelist = world.whitelist().all();

  core::SegugioConfig config;
  config.forest.num_trees = 60;
  config.forest.num_threads = 1;

  // --- Day 0: learn. The trace enters through the streaming API: a
  // TraceSource wrapping the in-memory day, cut at day boundaries by
  // ingest_stream (a live deployment swaps in dns::FileTraceSource over a
  // dnstap or pcap capture and nothing else changes).
  obs::Span train_span("example/train_day");
  const auto train_trace = world.generate_day(/*isp=*/0, /*day=*/0);
  core::Pipeline pipeline(world.psl(), world.activity(), world.pdns(), config);
  core::PreparedDay day0;
  {
    dns::DayTraceSource source(train_trace);
    const auto& blacklist = world.blacklist().as_of(sim::BlacklistKind::kCommercial, 0);
    pipeline.ingest_stream(
        source, [&](dns::Day) -> const graph::NameSet& { return blacklist; }, whitelist,
        [&](core::PreparedDay&& day) { day0 = std::move(day); });
  }
  pipeline.train(day0);
  const double train_seconds = train_span.close();
  const auto& train_graph = day0.graph;
  const auto& prune_stats = day0.prune_stats;
  const auto& segugio = pipeline.detector();

  std::printf("== training day 0 ==\n");
  std::printf("records: %zu   graph: %zu machines, %zu domains, %zu edges\n",
              train_trace.records.size(), train_graph.machine_count(),
              train_graph.domain_count(), train_graph.edge_count());
  std::printf("pruning: -%.1f%% machines, -%.1f%% domains, -%.1f%% edges\n",
              100.0 * prune_stats.machine_reduction(),
              100.0 * prune_stats.domain_reduction(), 100.0 * prune_stats.edge_reduction());
  std::printf("known malware domains: %zu   infected machines: %zu\n",
              train_graph.count_domains_with(graph::Label::kMalware),
              train_graph.count_machines_with(graph::Label::kMalware));
  std::printf("train wall time: %.2fs (features %.2fs, fit %.2fs)\n\n", train_seconds,
              segugio.timings().train_feature_seconds, segugio.timings().train_fit_seconds);

  // --- Day 1: detect. The same session carries the trained detector
  // forward and reads the same history stores; the day's graph is built
  // from scratch.
  obs::Span detect_span("example/detect_day");
  const auto test_trace = world.generate_day(0, 1);
  core::PreparedDay day1;
  {
    dns::DayTraceSource source(test_trace);
    const auto& blacklist = world.blacklist().as_of(sim::BlacklistKind::kCommercial, 1);
    pipeline.ingest_stream(
        source, [&](dns::Day) -> const graph::NameSet& { return blacklist; }, whitelist,
        [&](core::PreparedDay&& day) { day1 = std::move(day); });
  }
  const auto report = pipeline.classify(day1);
  const double classify_seconds = detect_span.close();

  std::printf("== detection day 1 ==\n");
  std::printf("unknown domains classified: %zu in %.2fs\n", report.scores.size(),
              classify_seconds);

  auto ranked = report.scores;
  std::sort(ranked.begin(), ranked.end(),
            [](const core::DomainScore& a, const core::DomainScore& b) {
              return a.score > b.score;
            });
  std::printf("top-scored unknown domains:\n");
  for (std::size_t i = 0; i < 10 && i < ranked.size(); ++i) {
    std::printf("  %-32s %.3f %s\n", ranked[i].name.c_str(), ranked[i].score,
                world.is_true_malware(ranked[i].name) ? "[true C&C]" : "");
  }

  const double threshold = 0.7;
  const auto detections = report.detections_at(threshold);
  std::printf("detections at threshold %.2f: %zu\n", threshold, detections.size());
  std::size_t shown = 0;
  std::size_t truly_malware = 0;
  for (const auto& detection : detections) {
    const bool is_malware = world.is_true_malware(detection.domain.name);
    truly_malware += is_malware ? 1 : 0;
    if (shown < 15) {
      std::printf("  %-32s score=%.3f %-14s machines: %zu\n",
                  detection.domain.name.c_str(), detection.domain.score,
                  is_malware ? "[true C&C]" : "[verify!]", detection.machines.size());
      ++shown;
    }
  }
  std::printf("\nground truth (the operator would not know this): %zu/%zu detections are "
              "true malware-control domains\n",
              truly_malware, detections.size());

  // Feature importance: which evidence the forest leans on.
  const auto importance = segugio.feature_importance();
  std::printf("\nfeature importance:\n");
  const auto& names = features::feature_names();
  for (std::size_t f = 0; f < importance.size(); ++f) {
    std::printf("  %-28s %.3f\n", names[f].c_str(), importance[f]);
  }
  return 0;
}
