#include "core/segugio.h"

#include <gtest/gtest.h>

#include "graph/labeling.h"
#include "sim/world.h"
#include "util/require.h"

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

  static graph::MachineDomainGraph prepared_graph(dns::Day day,
                                                  graph::PruneStats* stats = nullptr) {
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

}  // namespace
}  // namespace seg::core
