// The zero-copy graph backing contract (graph_compressed.h + segugio.h):
// classification over an mmap-resident GraphView from map_graph() must
// score bit-identically to the heap-resident graph, at every thread count
// (PipelineTest.MappedDayGraphsScoreLikeTheSession checks the same for a
// streamed session).
#include "core/segugio.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

#include "graph/graph_compressed.h"
#include "sim/world.h"
#include "util/parallel.h"

namespace seg::core {
namespace {

class MmapBackingTest : public ::testing::Test {
 protected:
  static sim::World& world() {
    static sim::World instance{sim::ScenarioConfig::small()};
    return instance;
  }

  static SegugioConfig fast_config() {
    SegugioConfig config;
    config.forest.num_trees = 20;
    config.forest.num_threads = 1;
    return config;
  }

  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("seg_mmap_backing_test_" + std::to_string(::getpid()) + ".graphc"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::string path_;

  static void expect_same_scores(const DetectionReport& a, const DetectionReport& b) {
    ASSERT_EQ(a.scores.size(), b.scores.size());
    for (std::size_t i = 0; i < a.scores.size(); ++i) {
      EXPECT_EQ(a.scores[i].name, b.scores[i].name);
      EXPECT_EQ(a.scores[i].score, b.scores[i].score);
    }
  }
};

TEST_F(MmapBackingTest, MappedViewScoresBitIdenticalToHeapAtOneAndEightThreads) {
  auto& w = world();
  const auto config = fast_config();
  const auto train_trace = w.generate_day(0, 5);
  const auto train_blacklist = w.blacklist().as_of(sim::BlacklistKind::kCommercial, 5);
  const auto test_trace = w.generate_day(0, 6);
  const auto test_blacklist = w.blacklist().as_of(sim::BlacklistKind::kCommercial, 6);
  const auto whitelist = w.whitelist().all();

  const auto train_prep = Segugio::prepare_graph(train_trace, w.psl(), train_blacklist,
                                                 whitelist, config.prepare_options());
  const auto test_prep = Segugio::prepare_graph(test_trace, w.psl(), test_blacklist,
                                                whitelist, config.prepare_options());
  {
    std::ofstream out(path_, std::ios::binary);
    graph::save_graph_compressed(test_prep.graph, out);
  }
  const auto mapped = graph::map_graph(path_);

  Segugio segugio(config);
  segugio.train(train_prep.graph, w.activity(), w.pdns());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    util::set_parallelism(threads);
    const auto heap = segugio.classify(test_prep.graph, w.activity(), w.pdns());
    const auto zero_copy = segugio.classify(mapped.view, w.activity(), w.pdns());
    expect_same_scores(heap, zero_copy);
  }
  util::set_parallelism(0);
}

}  // namespace
}  // namespace seg::core
