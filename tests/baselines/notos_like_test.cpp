#include "baselines/notos_like.h"

#include <gtest/gtest.h>

#include "core/segugio.h"
#include "sim/world.h"
#include "util/require.h"

namespace seg::baselines {
namespace {

class NotosLikeTest : public ::testing::Test {
 protected:
  static sim::World& world() {
    static sim::World instance{sim::ScenarioConfig::small()};
    return instance;
  }

  static graph::PreparedGraph prepared_graph(dns::Day day) {
    auto& w = world();
    const auto trace = w.generate_day(1, day);
    return core::Segugio::prepare_graph(
               trace, w.psl(), w.blacklist().as_of(sim::BlacklistKind::kCommercial, day),
               w.whitelist().all())
        .graph;
  }

  static NotosConfig fast_config() {
    NotosConfig config;
    config.forest.num_trees = 20;
    config.forest.num_threads = 1;
    return config;
  }
};

TEST_F(NotosLikeTest, TrainsAndScores) {
  auto& w = world();
  const auto graph = prepared_graph(0);
  NotosLikeClassifier notos(fast_config());
  EXPECT_FALSE(notos.is_trained());
  notos.train(graph, w.activity(), w.pdns(),
              w.blacklist().as_of(sim::BlacklistKind::kCommercial, 0),
              w.whitelist().top(100));
  EXPECT_TRUE(notos.is_trained());

  std::size_t scored = 0;
  std::size_t rejected = 0;
  for (graph::DomainId d = 0; d < graph.domain_count(); ++d) {
    const auto score = notos.score(graph, d, w.activity(), w.pdns());
    if (score.has_value()) {
      EXPECT_GE(*score, 0.0);
      EXPECT_LE(*score, 1.0);
      ++scored;
    } else {
      ++rejected;
      EXPECT_TRUE(notos.rejects(graph, d, w.activity(), w.pdns()));
    }
  }
  EXPECT_GT(scored, 0u);
}

TEST_F(NotosLikeTest, RejectOptionDeclinesHistorylessDomains) {
  // A domain whose e2LD was never seen before and whose IP space has no
  // pDNS history must be rejected.
  auto& w = world();
  dns::DayTrace trace;
  trace.day = 5;
  // Fresh domain on never-seen IP space (direct graph, no pruning so the
  // single-machine edge survives).
  trace.records.push_back(
      {5, "m1", "brandnew-zone-xyz.com", {dns::IpV4::parse("99.99.99.99")}});
  graph::GraphBuilder builder(w.psl());
  builder.add_trace(trace);
  const auto graph = builder.build();
  NotosLikeClassifier notos(fast_config());
  EXPECT_TRUE(notos.rejects(graph, 0, w.activity(), w.pdns()));
}

TEST_F(NotosLikeTest, DoesNotRejectKnownZones) {
  auto& w = world();
  const auto graph = prepared_graph(1);
  NotosLikeClassifier notos(fast_config());
  // Whitelisted popular domains have long zone history -> never rejected.
  std::size_t checked = 0;
  for (graph::DomainId d = 0; d < graph.domain_count() && checked < 50; ++d) {
    if (graph.domain_label(d) == graph::Label::kBenign) {
      EXPECT_FALSE(notos.rejects(graph, d, w.activity(), w.pdns()))
          << graph.domain_name(d);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(NotosLikeTest, AbusedIpSpaceOverridesYoungZoneRejection) {
  // Fresh zone but pointing into previously-abused space -> classified.
  auto& w = world();
  // Find an abused IP: any commercially-listed record from the warmup.
  dns::IpV4 abused_ip;
  bool found = false;
  for (const auto& record : w.blacklist().records()) {
    if (record.commercial_listed && record.commercial_day < 0) {
      abused_ip = record.ips.front();
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  dns::DayTrace trace;
  trace.day = 5;
  trace.records.push_back({5, "m1", "fresh-but-dirty.com", {abused_ip}});
  graph::GraphBuilder builder(w.psl());
  builder.add_trace(trace);
  const auto graph = builder.build();
  NotosLikeClassifier notos(fast_config());
  EXPECT_FALSE(notos.rejects(graph, 0, w.activity(), w.pdns()));
}

TEST_F(NotosLikeTest, MeasureProducesSaneStringFeatures) {
  auto& w = world();
  dns::DayTrace trace;
  trace.day = 5;
  trace.records.push_back({5, "m1", "ab-1.example2.com", {}});
  graph::GraphBuilder builder(w.psl());
  builder.add_trace(trace);
  const auto graph = builder.build();
  NotosLikeClassifier notos(fast_config());
  const auto features = notos.measure(graph, 0, w.activity(), w.pdns());
  EXPECT_DOUBLE_EQ(features[0], 17.0);  // length
  EXPECT_DOUBLE_EQ(features[1], 3.0);   // labels
  EXPECT_NEAR(features[2], 2.0 / 17.0, 1e-12);  // digits
  EXPECT_DOUBLE_EQ(features[3], 1.0);   // hyphens
  EXPECT_GT(features[4], 0.0);          // entropy
}

TEST_F(NotosLikeTest, ScoreBeforeTrainingThrows) {
  auto& w = world();
  const auto graph = prepared_graph(2);
  NotosLikeClassifier notos(fast_config());
  EXPECT_THROW(notos.score(graph, 0, w.activity(), w.pdns()), util::PreconditionError);
}

}  // namespace
}  // namespace seg::baselines
