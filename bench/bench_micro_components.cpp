// Micro-benchmarks of the hot components (google-benchmark).
//
// These are the per-operation costs behind the Section IV-G pipeline
// numbers: PSL e2LD extraction, graph construction, pruning, passive-DNS
// range queries, per-domain feature measurement, and forest fit and scoring.
#include <benchmark/benchmark.h>

#include "dns/domain_name.h"

#include "core/segugio.h"
#include "features/extractor.h"
#include "features/training_set.h"
#include "graph/labeling.h"
#include "sim/world.h"

namespace {

using namespace seg;

sim::World& micro_world() {
  static sim::World world{sim::ScenarioConfig::small()};
  return world;
}

const dns::DayTrace& micro_trace() {
  static const dns::DayTrace trace = micro_world().generate_day(0, 0);
  return trace;
}

const graph::MachineDomainGraph& micro_graph() {
  static const graph::MachineDomainGraph graph = [] {
    auto& world = micro_world();
    graph::GraphBuilder builder(world.psl());
    builder.add_trace(micro_trace());
    auto g = builder.build();
    graph::apply_labels(g, world.blacklist().as_of(sim::BlacklistKind::kCommercial, 0),
                        world.whitelist().all());
    return g;
  }();
  return graph;
}

// The detector's training rows on the micro day (default features and
// hidden-label options).
const ml::Dataset& micro_training_set() {
  static const ml::Dataset dataset = [] {
    auto& world = micro_world();
    const auto& graph = micro_graph();
    const features::FeatureExtractor extractor(graph, world.activity(), world.pdns());
    return features::build_training_set(graph, extractor, core::SegugioConfig{}.training)
        .dataset;
  }();
  return dataset;
}

void BM_PslRegistrableDomain(benchmark::State& state) {
  const auto psl = dns::PublicSuffixList::with_default_rules();
  const char* names[] = {"www.example.com", "a.b.c.co.uk", "x.blogspot.com",
                         "deep.sub.narod.ru", "plain.de"};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(psl.registrable_domain(names[i++ % std::size(names)]));
  }
}
BENCHMARK(BM_PslRegistrableDomain);

void BM_DomainNameParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::DomainName::parse("WwW.Some-Host.Example.COM."));
  }
}
BENCHMARK(BM_DomainNameParse);

void BM_GraphBuild(benchmark::State& state) {
  auto& world = micro_world();
  const auto& trace = micro_trace();
  for (auto _ : state) {
    graph::GraphBuilder builder(world.psl());
    builder.add_trace(trace);
    benchmark::DoNotOptimize(builder.build());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.records.size()));
}
BENCHMARK(BM_GraphBuild);

void BM_GraphPrune(benchmark::State& state) {
  const auto& graph = micro_graph();
  const auto config = core::SegugioConfig::scaled_pruning_defaults();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::prune(graph, config));
  }
}
BENCHMARK(BM_GraphPrune);

void BM_PdnsRangeQuery(benchmark::State& state) {
  const auto& pdns = micro_world().pdns();
  const auto ip = dns::IpV4::parse("185.0.0.1");
  for (auto _ : state) {
    benchmark::DoNotOptimize(pdns.ip_malware_associated(ip, -40, -1));
    benchmark::DoNotOptimize(pdns.prefix_malware_associated(ip, -40, -1));
  }
}
BENCHMARK(BM_PdnsRangeQuery);

void BM_FeatureExtraction(benchmark::State& state) {
  auto& world = micro_world();
  const auto& graph = micro_graph();
  const features::FeatureExtractor extractor(graph, world.activity(), world.pdns());
  graph::DomainId d = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.extract(d));
    d = (d + 1) % static_cast<graph::DomainId>(graph.domain_count());
  }
}
BENCHMARK(BM_FeatureExtraction);

// Serial 100-tree fit with the detector's forest settings: the per-fit cost
// behind Segugio::train's fit stage.
void BM_ForestFit(benchmark::State& state) {
  const auto& dataset = micro_training_set();
  auto config = core::SegugioConfig{}.forest;
  config.num_trees = 100;
  config.num_threads = 1;
  for (auto _ : state) {
    ml::RandomForest forest(config);
    forest.train(dataset);
    benchmark::DoNotOptimize(forest);
  }
  state.counters["rows"] = static_cast<double>(dataset.num_rows());
}
// Wall time: the fit runs on the forest's own worker thread.
BENCHMARK(BM_ForestFit)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ForestScore(benchmark::State& state) {
  auto& world = micro_world();
  const auto& graph = micro_graph();
  const features::FeatureExtractor extractor(graph, world.activity(), world.pdns());
  core::SegugioConfig config;
  config.forest.num_trees = static_cast<std::size_t>(state.range(0));
  config.forest.num_threads = 1;
  core::Segugio segugio(config);
  segugio.train(graph, world.activity(), world.pdns());
  const auto features = extractor.extract(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(segugio.score(features));
  }
}
BENCHMARK(BM_ForestScore)->Arg(10)->Arg(100);

}  // namespace

BENCHMARK_MAIN();
