#include "core/segugio.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph_compressed.h"
#include "graph/labeling.h"
#include "graph/prober_filter.h"
#include "graph/pruning.h"
#include "sim/world.h"
#include "util/parallel.h"
#include "util/require.h"
#include "scoped_temp_dir.h"

namespace seg::core {
namespace {

// Shared small world for the pipeline tests (built once; generating days
// advances shared background state deterministically).
class SegugioTest : public ::testing::Test {
 protected:
  static sim::World& world() {
    static sim::World instance{sim::ScenarioConfig::small()};
    return instance;
  }

  static graph::PreparedGraph prepared_graph(dns::Day day, graph::PruneStats* stats = nullptr) {
    auto& w = world();
    const auto trace = w.generate_day(0, day);
    auto prep = Segugio::prepare_graph(
        trace, w.psl(), w.blacklist().as_of(sim::BlacklistKind::kCommercial, day),
        w.whitelist().all());
    if (stats != nullptr) {
      *stats = prep.prune_stats;
    }
    return std::move(prep.graph);
  }

  static SegugioConfig fast_config() {
    SegugioConfig config;
    config.forest.num_trees = 20;
    config.forest.num_threads = 1;
    return config;
  }
};

TEST_F(SegugioTest, PrepareGraphLabelsAndPrunes) {
  graph::PruneStats stats;
  const auto graph = prepared_graph(0, &stats);
  EXPECT_GT(graph.machine_count(), 0u);
  EXPECT_GT(graph.domain_count(), 0u);
  EXPECT_GT(graph.count_domains_with(graph::Label::kMalware), 0u);
  EXPECT_GT(graph.count_domains_with(graph::Label::kBenign), 0u);
  EXPECT_GT(graph.count_machines_with(graph::Label::kMalware), 0u);
  EXPECT_GT(stats.machines_removed_r1, 0u);  // inactive machines existed
  EXPECT_GT(stats.domains_removed_r3, 0u);   // tail domains existed
  EXPECT_LT(stats.machines_after, stats.machines_before);
}

TEST_F(SegugioTest, TrainThenClassifyProducesScores) {
  const auto graph = prepared_graph(0);
  Segugio segugio(fast_config());
  EXPECT_FALSE(segugio.is_trained());
  segugio.train(graph, world().activity(), world().pdns());
  EXPECT_TRUE(segugio.is_trained());

  const auto graph2 = prepared_graph(1);
  const auto report = segugio.classify(graph2, world().activity(), world().pdns());
  EXPECT_EQ(report.scores.size(), graph2.count_domains_with(graph::Label::kUnknown));
  for (const auto& scored : report.scores) {
    EXPECT_GE(scored.score, 0.0);
    EXPECT_LE(scored.score, 1.0);
    EXPECT_FALSE(scored.name.empty());
  }
}

TEST_F(SegugioTest, UnknownTrueMalwareScoresHigherThanBenign) {
  // The behavioral signal must separate yet-unblacklisted C&C domains from
  // popular benign ones even in the small scenario.
  const auto graph = prepared_graph(0);
  Segugio segugio(fast_config());
  segugio.train(graph, world().activity(), world().pdns());
  const auto graph2 = prepared_graph(2);
  const auto report = segugio.classify(graph2, world().activity(), world().pdns());

  double malware_score_sum = 0.0;
  std::size_t malware_count = 0;
  double other_score_sum = 0.0;
  std::size_t other_count = 0;
  for (const auto& scored : report.scores) {
    if (world().is_true_malware(scored.name)) {
      malware_score_sum += scored.score;
      ++malware_count;
    } else {
      other_score_sum += scored.score;
      ++other_count;
    }
  }
  ASSERT_GT(malware_count, 0u);  // some C&C domains escaped the blacklist
  ASSERT_GT(other_count, 0u);
  EXPECT_GT(malware_score_sum / static_cast<double>(malware_count),
            other_score_sum / static_cast<double>(other_count) + 0.15);
}

TEST_F(SegugioTest, DetectionsIncludeImplicatedMachines) {
  const auto graph = prepared_graph(0);
  Segugio segugio(fast_config());
  segugio.train(graph, world().activity(), world().pdns());
  const auto graph2 = prepared_graph(3);
  const auto report = segugio.classify(graph2, world().activity(), world().pdns());
  const auto detections = report.detections_at(0.6);
  ASSERT_GT(detections.size(), 0u);
  for (const auto& detection : detections) {
    EXPECT_GE(detection.domain.score, 0.6);
    EXPECT_FALSE(detection.machines.empty());
  }
  // Sorted by score, descending.
  for (std::size_t i = 1; i < detections.size(); ++i) {
    EXPECT_GE(detections[i - 1].domain.score, detections[i].domain.score);
  }
}

TEST_F(SegugioTest, LogisticRegressionBackendWorks) {
  auto config = fast_config();
  config.classifier = ClassifierKind::kLogisticRegression;
  const auto graph = prepared_graph(0);
  Segugio segugio(config);
  segugio.train(graph, world().activity(), world().pdns());
  EXPECT_TRUE(segugio.is_trained());
  const auto report = segugio.classify(graph, world().activity(), world().pdns());
  EXPECT_GT(report.scores.size(), 0u);
}

TEST_F(SegugioTest, FeatureSubsetRestrictsModel) {
  auto config = fast_config();
  config.feature_subset =
      features::feature_indices_excluding(features::FeatureGroup::kIpAbuse);
  const auto graph = prepared_graph(0);
  Segugio segugio(config);
  segugio.train(graph, world().activity(), world().pdns());
  const auto importance = segugio.feature_importance();
  EXPECT_EQ(importance.size(), 7u);  // 11 - 4 IP-abuse features
}

TEST_F(SegugioTest, TimingsArePopulated) {
  const auto graph = prepared_graph(0);
  Segugio segugio(fast_config());
  segugio.train(graph, world().activity(), world().pdns());
  segugio.classify(graph, world().activity(), world().pdns());
  const auto& timings = segugio.timings();
  EXPECT_GT(timings.train_fit_seconds, 0.0);
  EXPECT_GE(timings.train_feature_seconds, 0.0);
  EXPECT_GE(timings.classify_feature_seconds, 0.0);
  EXPECT_GE(timings.classify_score_seconds, 0.0);
}

TEST_F(SegugioTest, ScoreRequiresTraining) {
  Segugio segugio(fast_config());
  features::FeatureVector features{};
  EXPECT_THROW(segugio.score(features), util::PreconditionError);
  const auto graph = prepared_graph(0);
  EXPECT_THROW(segugio.classify(graph, world().activity(), world().pdns()),
               util::PreconditionError);
}

TEST_F(SegugioTest, PickThresholdRespectsFprBudget) {
  const std::vector<int> labels = {1, 1, 1, 0, 0, 0, 0, 0, 0, 0};
  const std::vector<double> scores = {0.9, 0.8, 0.4, 0.5, 0.3, 0.2, 0.1, 0.15, 0.05, 0.02};
  const double threshold = Segugio::pick_threshold(labels, scores, 0.15);
  std::size_t fp = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    fp += (labels[i] == 0 && scores[i] >= threshold) ? 1 : 0;
  }
  EXPECT_LE(static_cast<double>(fp) / 7.0, 0.15);
}

// --- Segugio::prepare_graph runs the preparation engine (graph/oocore.h);
// these tests hold it to the serial reference.

// The serial reference prepare_graph must match byte for byte:
// GraphBuilder -> apply_labels -> [remove_probers] -> prune.
std::string reference_bytes(const dns::DayTrace& trace, const dns::PublicSuffixList& psl,
                            const graph::NameSet& blacklist, const graph::NameSet& whitelist,
                            const graph::OutOfCoreConfig& options, graph::PruneStats* stats,
                            std::size_t* probers_removed = nullptr) {
  graph::GraphBuilder builder(psl);
  builder.add_trace(trace);
  auto graph = builder.build();
  graph::apply_labels(graph, blacklist, whitelist);
  if (options.prober_filter) {
    graph::ProberFilterStats removed;
    graph = graph::remove_probers(graph, *options.prober_filter, &removed);
    if (probers_removed != nullptr) {
      *probers_removed = removed.machines_removed;
    }
  }
  std::ostringstream blob;
  graph::save_graph_compressed(graph::prune(graph, options.pruning, stats), blob);
  return std::move(blob).str();
}

std::string bytes_of(const graph::GraphView& graph) {
  std::ostringstream blob;
  graph::save_graph_compressed(graph, blob);
  return std::move(blob).str();
}

bool same_stats(const graph::PruneStats& a, const graph::PruneStats& b) {
  return a.machines_before == b.machines_before && a.machines_after == b.machines_after &&
         a.domains_before == b.domains_before && a.domains_after == b.domains_after &&
         a.edges_before == b.edges_before && a.edges_after == b.edges_after &&
         a.machines_removed_r1 == b.machines_removed_r1 &&
         a.machines_removed_r2 == b.machines_removed_r2 &&
         a.domains_removed_r3 == b.domains_removed_r3 &&
         a.domains_removed_r4 == b.domains_removed_r4 &&
         a.malware_machines_kept_by_exception == b.malware_machines_kept_by_exception &&
         a.malware_domains_kept_by_exception == b.malware_domains_kept_by_exception &&
         a.theta_d == b.theta_d && a.theta_m == b.theta_m;
}

class PrepareGraphTest : public SegugioTest {
 protected:
  void TearDown() override { util::set_parallelism(0); }

  // A blacklisted name that only the injected probers query.
  static std::string probe_name(int i) {
    return "probe-cc" + std::to_string(i) + ".evil.example";
  }

  // The day's blacklist plus the probe names.
  static graph::NameSet blacklist(dns::Day day) {
    auto names = world().blacklist().as_of(sim::BlacklistKind::kCommercial, day);
    for (int i = 0; i < 40; ++i) {
      names.insert(probe_name(i));
    }
    return names;
  }

  // A simulator day with two probers injected as prober_filter_test does:
  // each queries 40 blacklisted names and 10 of the day's ordinary ones.
  static dns::DayTrace day_with_probers(dns::Day day) {
    auto trace = world().generate_day(0, day);
    std::vector<std::string> ordinary;
    for (const auto& record : trace.records) {
      if (ordinary.size() < 10 &&
          std::find(ordinary.begin(), ordinary.end(), record.qname) == ordinary.end()) {
        ordinary.push_back(record.qname);
      }
    }
    for (const std::string prober : {"prober-a", "prober-b"}) {
      for (int i = 0; i < 40; ++i) {
        trace.records.push_back({day, prober, probe_name(i), {dns::IpV4::parse("192.0.2.7")}});
      }
      for (const auto& qname : ordinary) {
        trace.records.push_back({day, prober, qname, {}});
      }
    }
    return trace;
  }
};

TEST_F(PrepareGraphTest, MatchesTheSerialReferenceAtEveryPoolSize) {
  const auto plain = world().generate_day(0, 1);
  const auto probed = day_with_probers(2);
  const auto& whitelist = world().whitelist().all();
  for (const bool filter : {false, true}) {
    auto options = SegugioConfig{}.prepare_options();
    if (filter) {
      options.prober_filter = graph::ProberFilterConfig{};
    }
    for (const auto* trace : {&plain, &probed}) {
      const auto listed = blacklist(trace->day);
      graph::PruneStats expected_stats;
      std::size_t removed = 0;
      const auto expected =
          reference_bytes(*trace, world().psl(), listed, whitelist, options, &expected_stats,
                          &removed);
      if (filter && trace == &probed) {
        ASSERT_EQ(removed, 2u);  // the filter removes machines on this day
      }
      for (const std::size_t pool : {1, 2, 3, 8}) {
        util::set_parallelism(pool);
        const auto prep =
            Segugio::prepare_graph(*trace, world().psl(), listed, whitelist, options);
        const std::string context = "day " + std::to_string(trace->day) + ", filter " +
                                    std::to_string(filter) + ", pool " + std::to_string(pool);
        EXPECT_TRUE(bytes_of(prep.graph) == expected) << context;
        EXPECT_TRUE(same_stats(prep.prune_stats, expected_stats)) << context;
        EXPECT_EQ(prep.timings.build.records, trace->records.size()) << context;
        EXPECT_EQ(prep.graph.day(), trace->day) << context;
      }
    }
  }
}

TEST_F(PrepareGraphTest, TimingsMapTheEngineSpans) {
  auto options = SegugioConfig{}.prepare_options();
  const auto trace = day_with_probers(3);
  const auto listed = blacklist(3);
  const auto& whitelist = world().whitelist().all();
  const auto plain = Segugio::prepare_graph(trace, world().psl(), listed, whitelist, options);
  EXPECT_EQ(plain.timings.prober_seconds, 0.0);  // no filter, no mask step
  options.prober_filter = graph::ProberFilterConfig{};
  const auto filtered = Segugio::prepare_graph(trace, world().psl(), listed, whitelist, options);
  for (const auto* prep : {&plain, &filtered}) {
    const auto& t = prep->timings;
    EXPECT_GT(t.build.total_seconds(), 0.0);
    EXPECT_GT(t.label_seconds, 0.0);
    EXPECT_GT(t.prune_seconds, 0.0);
    EXPECT_EQ(t.build.records, trace.records.size());
  }
  // build.edges counts every distinct edge, probers' included.
  EXPECT_EQ(filtered.timings.build.edges, plain.timings.build.edges);
  EXPECT_EQ(filtered.timings.build.edges, plain.prune_stats.edges_before);
  EXPECT_LT(filtered.prune_stats.edges_before, plain.prune_stats.edges_before);
}

TEST_F(PrepareGraphTest, AnEmptyDayGivesAnEmptyGraphOfItsDay) {
  dns::DayTrace empty;
  empty.day = 17;
  const auto prep = Segugio::prepare_graph(empty, world().psl(), {}, {});
  EXPECT_EQ(prep.graph.day(), 17);
  EXPECT_EQ(prep.graph.machine_count(), 0u);
  EXPECT_EQ(prep.graph.domain_count(), 0u);
  EXPECT_EQ(prep.graph.edge_count(), 0u);
  graph::PruneStats stats;
  EXPECT_EQ(bytes_of(prep.graph),
            reference_bytes(empty, world().psl(), {}, {}, SegugioConfig{}.prepare_options(),
                            &stats));
}

TEST_F(PrepareGraphTest, ARecordOfAnotherDayIsAParseErrorAndLeavesNoTemporaryEntry) {
  auto trace = world().generate_day(0, 4);
  ASSERT_GT(trace.records.size(), 100u);
  trace.records[trace.records.size() / 2].day = trace.day + 1;
  const ScopedTempDir temp;
  for (const std::size_t pool : {1, 3}) {
    util::set_parallelism(pool);
    EXPECT_THROW(Segugio::prepare_graph(trace, world().psl(), blacklist(4),
                                        world().whitelist().all()),
                 util::ParseError)
        << "pool " << pool;
    EXPECT_EQ(temp.entries(), 0u) << "pool " << pool;
  }
  // The first record alone may not set the day either.
  trace.records[trace.records.size() / 2].day = trace.day;
  trace.records.front().day = trace.day - 1;
  EXPECT_THROW(
      Segugio::prepare_graph(trace, world().psl(), blacklist(4), world().whitelist().all()),
      util::ParseError);
  EXPECT_EQ(temp.entries(), 0u);
}

TEST_F(PrepareGraphTest, ConcurrentPreparesAtParallelismOneEachMatchTheReference) {
  util::set_parallelism(1);
  const std::array<dns::DayTrace, 2> traces = {world().generate_day(0, 5),
                                               world().generate_day(1, 5)};
  const auto listed = blacklist(5);
  const auto& whitelist = world().whitelist().all();
  const auto options = SegugioConfig{}.prepare_options();
  std::array<std::string, 2> expected;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    graph::PruneStats stats;
    expected[i] = reference_bytes(traces[i], world().psl(), listed, whitelist, options, &stats);
  }
  const ScopedTempDir temp;
  std::array<std::string, 2> got;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    threads.emplace_back([&, i] {
      for (int round = 0; round < 3; ++round) {
        got[i] = bytes_of(
            Segugio::prepare_graph(traces[i], world().psl(), listed, whitelist, options).graph);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (std::size_t i = 0; i < traces.size(); ++i) {
    EXPECT_TRUE(got[i] == expected[i]) << "ISP " << i;
  }
  EXPECT_EQ(temp.entries(), 0u);
}

}  // namespace
}  // namespace seg::core
