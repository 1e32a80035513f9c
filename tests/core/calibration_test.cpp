#include "core/calibration.h"

#include <gtest/gtest.h>

#include "sim/world.h"
#include "util/require.h"

namespace seg::core {
namespace {

class CalibrationTest : public ::testing::Test {
 protected:
  static sim::World& world() {
    static sim::World instance{sim::ScenarioConfig::small()};
    return instance;
  }

  static graph::PreparedGraph prepared_graph(dns::Day day) {
    auto& w = world();
    const auto trace = w.generate_day(0, day);
    return Segugio::prepare_graph(trace, w.psl(),
                                  w.blacklist().as_of(sim::BlacklistKind::kCommercial, day),
                                  w.whitelist().all())
        .graph;
  }

  static Segugio trained(const graph::GraphView& graph) {
    SegugioConfig config;
    config.forest.num_trees = 20;
    config.forest.num_threads = 1;
    Segugio segugio(config);
    segugio.train(graph, world().activity(), world().pdns());
    return segugio;
  }
};

TEST_F(CalibrationTest, AchievedFprStaysWithinBudget) {
  const auto graph = prepared_graph(0);
  const auto segugio = trained(graph);
  for (const double budget : {0.005, 0.02, 0.1}) {
    const auto result =
        calibrate_threshold(segugio, graph, world().activity(), world().pdns(), budget);
    EXPECT_LE(result.achieved_fpr, budget + 1e-12) << budget;
    EXPECT_GT(result.malware_domains, 0u);
    EXPECT_GT(result.benign_domains, 0u);
  }
}

TEST_F(CalibrationTest, LooserBudgetsNeverLowerTheTpr) {
  const auto graph = prepared_graph(1);
  const auto segugio = trained(graph);
  const auto tight =
      calibrate_threshold(segugio, graph, world().activity(), world().pdns(), 0.002);
  const auto loose =
      calibrate_threshold(segugio, graph, world().activity(), world().pdns(), 0.05);
  EXPECT_GE(loose.achieved_tpr, tight.achieved_tpr);
  EXPECT_LE(loose.threshold, tight.threshold);
}

TEST_F(CalibrationTest, RequiresTrainedDetector) {
  const auto graph = prepared_graph(0);
  Segugio untrained;
  EXPECT_THROW(
      calibrate_threshold(untrained, graph, world().activity(), world().pdns(), 0.01),
      util::PreconditionError);
}

TEST_F(CalibrationTest, ValidatesBudget) {
  const auto graph = prepared_graph(0);
  const auto segugio = trained(graph);
  EXPECT_THROW(calibrate_threshold(segugio, graph, world().activity(), world().pdns(), 0.0),
               util::PreconditionError);
  EXPECT_THROW(calibrate_threshold(segugio, graph, world().activity(), world().pdns(), 1.5),
               util::PreconditionError);
}

}  // namespace
}  // namespace seg::core
