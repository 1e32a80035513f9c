#include "baselines/lbp.h"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/labeling.h"
#include "util/parallel.h"
#include "util/require.h"

namespace seg::baselines {
namespace {

using graph::GraphBuilder;
using graph::Label;
using graph::NameSet;

class LbpTest : public ::testing::Test {
 protected:
  dns::PublicSuffixList psl_ = dns::PublicSuffixList::with_default_rules();

  // Two communities: infected machines i* query cc domains + the unknown
  // suspicious domain; benign machines b* query good domains + an unknown
  // benign-ish domain.
  graph::MachineDomainGraph make_graph() {
    GraphBuilder builder(psl_);
    for (int i = 0; i < 5; ++i) {
      const auto machine = "i" + std::to_string(i);
      builder.add_query(machine, "cc.evil.biz", {});
      builder.add_query(machine, "suspicious.net", {});
    }
    for (int i = 0; i < 5; ++i) {
      const auto machine = "b" + std::to_string(i);
      builder.add_query(machine, "www.good.com", {});
      builder.add_query(machine, "harmless.org", {});
    }
    auto graph = builder.build();
    NameSet blacklist;
    blacklist.insert("cc.evil.biz");
    NameSet whitelist;
    whitelist.insert("good.com");
    graph::apply_labels(graph, blacklist, whitelist);
    return graph;
  }
};

TEST_F(LbpTest, PropagatesLabelsToUnknownNeighbors) {
  // With the conventional 0.51 homophily potential beliefs move gently but
  // must move in the right direction and rank correctly.
  const auto graph = make_graph();
  const auto result = run_loopy_belief_propagation(graph);
  const auto suspicious = graph.find_domain("suspicious.net");
  const auto harmless = graph.find_domain("harmless.org");
  EXPECT_GT(result.domain_belief[suspicious], 0.52);
  EXPECT_LT(result.domain_belief[harmless], 0.5);
  EXPECT_GT(result.domain_belief[suspicious], result.domain_belief[harmless] + 0.04);
}

TEST_F(LbpTest, LabeledNodesKeepTheirPolarity) {
  const auto graph = make_graph();
  const auto result = run_loopy_belief_propagation(graph);
  EXPECT_GT(result.domain_belief[graph.find_domain("cc.evil.biz")], 0.9);
  EXPECT_LT(result.domain_belief[graph.find_domain("www.good.com")], 0.1);
}

TEST_F(LbpTest, MachineBeliefsFollowCommunities) {
  // Machines carry strong node potentials from their labels; a stronger
  // edge potential makes the separation decisive.
  const auto graph = make_graph();
  LbpConfig config;
  config.edge_potential = 0.7;
  const auto result = run_loopy_belief_propagation(graph, config);
  EXPECT_GT(result.machine_belief[graph.find_machine("i0")], 0.6);
  EXPECT_LT(result.machine_belief[graph.find_machine("b0")], 0.4);
}

TEST_F(LbpTest, ConvergesOnSmallGraphs) {
  const auto graph = make_graph();
  const auto result = run_loopy_belief_propagation(graph);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.iterations, 0u);
}

TEST_F(LbpTest, BeliefsAreProbabilities) {
  const auto graph = make_graph();
  const auto result = run_loopy_belief_propagation(graph);
  for (const auto belief : result.domain_belief) {
    EXPECT_GE(belief, 0.0);
    EXPECT_LE(belief, 1.0);
  }
  for (const auto belief : result.machine_belief) {
    EXPECT_GE(belief, 0.0);
    EXPECT_LE(belief, 1.0);
  }
}

TEST_F(LbpTest, UnlabeledGraphStaysAtPrior) {
  GraphBuilder builder(psl_);
  builder.add_query("m1", "a.com", {});
  builder.add_query("m2", "a.com", {});
  const auto graph = builder.build();  // everything unknown
  const auto result = run_loopy_belief_propagation(graph);
  EXPECT_NEAR(result.domain_belief[0], 0.5, 1e-6);
}

TEST_F(LbpTest, StrongerEdgePotentialPropagatesHarder) {
  const auto graph = make_graph();
  LbpConfig weak;
  weak.edge_potential = 0.505;
  LbpConfig strong;
  strong.edge_potential = 0.7;
  const auto weak_result = run_loopy_belief_propagation(graph, weak);
  const auto strong_result = run_loopy_belief_propagation(graph, strong);
  const auto suspicious = graph.find_domain("suspicious.net");
  EXPECT_GT(strong_result.domain_belief[suspicious], weak_result.domain_belief[suspicious]);
}

TEST_F(LbpTest, InvalidConfigThrows) {
  const auto graph = make_graph();
  LbpConfig bad;
  bad.edge_potential = 0.5;
  EXPECT_THROW(run_loopy_belief_propagation(graph, bad), util::PreconditionError);
  bad = LbpConfig{};
  bad.labeled_confidence = 1.0;
  EXPECT_THROW(run_loopy_belief_propagation(graph, bad), util::PreconditionError);
}

TEST_F(LbpTest, HandlesHighDegreeNodesWithoutUnderflow) {
  // A domain queried by 2000 machines: naive probability products would
  // underflow; the log-space implementation must stay finite.
  GraphBuilder builder(psl_);
  for (int i = 0; i < 2000; ++i) {
    const auto machine = "m" + std::to_string(i);
    builder.add_query(machine, "megahub.com", {});
    builder.add_query(machine, "cc.evil.biz", {});
  }
  auto graph = builder.build();
  NameSet blacklist;
  blacklist.insert("cc.evil.biz");
  graph::apply_labels(graph, blacklist, NameSet{});
  const auto result = run_loopy_belief_propagation(graph);
  const auto hub = graph.find_domain("megahub.com");
  EXPECT_TRUE(std::isfinite(result.domain_belief[hub]));
  EXPECT_GT(result.domain_belief[hub], 0.5);  // all its machines are infected
}

TEST_F(LbpTest, ThreadCountDoesNotChangeBeliefs) {
  const auto graph = make_graph();
  struct RestorePool {
    ~RestorePool() { util::set_parallelism(0); }
  } restore;
  util::set_parallelism(1);
  const auto a = run_loopy_belief_propagation(graph);
  util::set_parallelism(4);
  const auto b = run_loopy_belief_propagation(graph);
  ASSERT_EQ(a.domain_belief.size(), b.domain_belief.size());
  for (std::size_t d = 0; d < a.domain_belief.size(); ++d) {
    EXPECT_DOUBLE_EQ(a.domain_belief[d], b.domain_belief[d]);
  }
  for (std::size_t m = 0; m < a.machine_belief.size(); ++m) {
    EXPECT_DOUBLE_EQ(a.machine_belief[m], b.machine_belief[m]);
  }
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
}

}  // namespace
}  // namespace seg::baselines
