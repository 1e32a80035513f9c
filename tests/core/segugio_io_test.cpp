#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/segugio.h"
#include "features/feature_config.h"
#include "sim/world.h"
#include "util/require.h"

namespace seg::core {
namespace {

class SegugioIoTest : public ::testing::Test {
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
};

TEST_F(SegugioIoTest, ForestModelRoundTrips) {
  SegugioConfig config;
  config.forest.num_trees = 15;
  config.forest.num_threads = 1;
  config.features.activity_window_days = 10;
  config.feature_subset =
      features::feature_indices_excluding(features::FeatureGroup::kIpAbuse);
  const auto graph = prepared_graph(0);
  Segugio segugio(config);
  segugio.train(graph, world().activity(), world().pdns());

  std::stringstream blob;
  segugio.save(blob);
  auto restored = Segugio::load(blob);
  EXPECT_TRUE(restored.is_trained());
  EXPECT_EQ(restored.config().features.activity_window_days, 10);
  EXPECT_EQ(restored.config().feature_subset, config.feature_subset);

  // Scores must be identical on a fresh classification day.
  const auto graph2 = prepared_graph(1);
  const auto a = segugio.classify(graph2, world().activity(), world().pdns());
  const auto b = restored.classify(graph2, world().activity(), world().pdns());
  ASSERT_EQ(a.scores.size(), b.scores.size());
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    EXPECT_EQ(a.scores[i].name, b.scores[i].name);
    EXPECT_DOUBLE_EQ(a.scores[i].score, b.scores[i].score);
  }
}

TEST_F(SegugioIoTest, HeaderlessModelStreamIsRejected) {
  // Model files written before the `segf1` header existed start directly
  // with the `segugio 1` body line; the body is otherwise unchanged. Such a
  // stream (today's bytes minus the header, with a v1 body tag) is a
  // ParseError, as is today's body without its header.
  SegugioConfig config;
  config.forest.num_trees = 10;
  config.forest.num_threads = 1;
  const auto graph = prepared_graph(0);
  Segugio segugio(config);
  segugio.train(graph, world().activity(), world().pdns());

  std::stringstream blob;
  segugio.save(blob);
  auto bytes = blob.str();
  bytes = bytes.substr(bytes.find('\n') + 1);  // drop the segf1 header
  const std::string modern_tag = "segugio " + std::to_string(Segugio::kModelFormatVersion);
  ASSERT_EQ(bytes.rfind(modern_tag, 0), 0u);
  std::istringstream headerless(bytes);
  EXPECT_THROW(Segugio::load(headerless), util::ParseError);
  std::istringstream legacy("segugio 1" + bytes.substr(modern_tag.size()));
  EXPECT_THROW(Segugio::load(legacy), util::ParseError);
}

TEST_F(SegugioIoTest, LogisticModelRoundTrips) {
  SegugioConfig config;
  config.classifier = ClassifierKind::kLogisticRegression;
  const auto graph = prepared_graph(0);
  Segugio segugio(config);
  segugio.train(graph, world().activity(), world().pdns());
  std::stringstream blob;
  segugio.save(blob);
  auto restored = Segugio::load(blob);
  EXPECT_TRUE(restored.is_trained());
  features::FeatureVector probe{};
  probe[features::kTotalMachines] = 3.0;
  EXPECT_NEAR(restored.score(probe), segugio.score(probe), 1e-12);
}

TEST_F(SegugioIoTest, ProberFilterTravelsWithTheModel) {
  SegugioConfig config;
  config.forest.num_trees = 5;
  config.forest.num_threads = 1;
  graph::ProberFilterConfig filter;
  filter.min_blacklisted_domains = 42;
  filter.min_blacklisted_ratio = 0.6;
  config.prober_filter = filter;
  const auto graph = prepared_graph(0);
  Segugio segugio(config);
  segugio.train(graph, world().activity(), world().pdns());
  std::stringstream blob;
  segugio.save(blob);
  const auto restored = Segugio::load(blob);
  ASSERT_TRUE(restored.config().prober_filter.has_value());
  EXPECT_EQ(restored.config().prober_filter->min_blacklisted_domains, 42u);
  EXPECT_DOUBLE_EQ(restored.config().prober_filter->min_blacklisted_ratio, 0.6);
}

TEST_F(SegugioIoTest, PruningConfigTravelsWithTheModel) {
  SegugioConfig config;
  config.forest.num_trees = 5;
  config.forest.num_threads = 1;
  config.pruning.inactive_machine_max_degree = 7;
  config.pruning.popular_e2ld_fraction = 0.25;
  const auto graph = prepared_graph(0);
  Segugio segugio(config);
  segugio.train(graph, world().activity(), world().pdns());
  std::stringstream blob;
  segugio.save(blob);
  const auto restored = Segugio::load(blob);
  EXPECT_EQ(restored.config().pruning.inactive_machine_max_degree, 7u);
  EXPECT_DOUBLE_EQ(restored.config().pruning.popular_e2ld_fraction, 0.25);
}

TEST_F(SegugioIoTest, SaveUntrainedThrows) {
  Segugio segugio;
  std::stringstream blob;
  EXPECT_THROW(segugio.save(blob), util::PreconditionError);
}

TEST_F(SegugioIoTest, LoadRejectsGarbage) {
  std::stringstream blob("not a model");
  EXPECT_THROW(Segugio::load(blob), util::ParseError);
  std::stringstream wrong_version("segf1 segugio-model 2\nsegugio 99\n");
  EXPECT_THROW(Segugio::load(wrong_version), util::ParseError);
}

// A hand-written model around `subset` and a classifier payload of `kind`.
std::string crafted_model(const std::string& subset, const std::string& payload,
                          const std::string& kind = "forest") {
  return "segf1 segugio-model 2\nsegugio 2\nactivity_window 14\npdns_window 150\n"
         "pruning 3 0.999 5 0.01\n" +
         subset + "\nprober 0\nclassifier " + kind + "\n" + payload;
}

TEST_F(SegugioIoTest, LoadAcceptsACraftedModel) {
  // The tree splits on its feature 0, which the subset {0, 10} maps to
  // feature 0 of the vector; a value of 0 goes left.
  std::istringstream in(crafted_model(
      "subset 2 0 10",
      "forest 2 1\ntree 2 3\n0 0.5 1 2 0 1\n-1 0 -1 -1 0.25 0\n-1 0 -1 -1 0.75 0\n"));
  const auto segugio = Segugio::load(in);
  features::FeatureVector probe{};
  EXPECT_EQ(segugio.score(probe), 0.25);
  probe[0] = 1.0;
  EXPECT_EQ(segugio.score(probe), 0.75);
}

TEST_F(SegugioIoTest, LoadRejectsHostileModels) {
  const std::string forest = "forest 2 1\ntree 2 1\n-1 0 -1 -1 0.5 0\n";
  const std::string hostile[] = {
      // apply_subset() would read features[11] of an 11-feature vector
      crafted_model("subset 2 0 11", forest),
      crafted_model("subset 2 0 18446744073709551615", forest),
      // a subset count far beyond the bytes that follow
      crafted_model("subset 1000000000000000 0 1", forest),
      // a forest whose tree splits on a feature it does not have
      crafted_model("subset 2 0 1",
                    "forest 2 1\ntree 2 3\n2 0.5 1 2 0 0\n-1 0 -1 -1 0 0\n"
                    "-1 0 -1 -1 1 0\n"),
      // a tree whose child points back at its root
      crafted_model("subset 2 0 1",
                    "forest 2 1\ntree 2 3\n0 0.5 1 2 0 0\n0 0.5 0 2 0 0\n"
                    "-1 0 -1 -1 1 0\n"),
      // a tree count far beyond the bytes that follow
      crafted_model("subset 2 0 1", "forest 2 1000000000000000\ntree 2 1\n"
                                    "-1 0 -1 -1 0.5 0\n"),
      // a forest wider than the two-feature vector the subset makes
      crafted_model("subset 2 0 1", "forest 5 1\ntree 5 1\n-1 0 -1 -1 0.5 0\n"),
      // a forest narrower than the full feature vector
      crafted_model("subset 0", forest),
      // a logistic weight count far beyond the bytes that follow
      crafted_model("subset 2 0 1", "logreg 4000000000\n0.5\n1 0 1\n", "logistic"),
      // a logistic model narrower than the full feature vector
      crafted_model("subset 0", "logreg 1\n0.5\n1 0 1\n", "logistic"),
  };
  for (const auto& text : hostile) {
    std::istringstream in(text);
    EXPECT_THROW(Segugio::load(in), util::ParseError) << text;
  }
}

}  // namespace
}  // namespace seg::core
