// Golden digests: absolute pins on what the detector computes.
//
// Every other identity suite compares two paths of the current code, so a
// change that moves both paths together passes all of them. These tests
// pin three fixed-seed flows on ScenarioConfig::small() to constants:
//
//   - the one-shot flow: prepare_graph -> train -> classify;
//   - a three-day Pipeline::ingest_stream session that trains on its first
//     day and classifies the other two;
//   - the out-of-core flow: prepare_graph_out_of_core -> map_graph ->
//     train/classify on the mapped view.
//
// Each flow yields two FNV-1a digests: one over every scored name and the
// bit pattern of its score (the digest segbench's reference check
// computes), one over the Segugio::save bytes of the trained model. Every
// flow runs at 1 and at 8 threads and must hit the same constants.
//
// The constants move only in a change that means to change scores or the
// model format; such a change updates them here and says why.
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/segugio.h"
#include "dns/trace_source.h"
#include "graph/graph_compressed.h"
#include "graph/oocore.h"
#include "sim/world.h"
#include "util/hash.h"
#include "util/parallel.h"

namespace seg::core {
namespace {

constexpr std::uint64_t kOneShotScores = 0x4d08847491b3dab0ULL;
constexpr std::uint64_t kOneShotModel = 0xfab4f5ad6cc309acULL;
constexpr std::uint64_t kSessionScores = 0xb434dcf82bd227c1ULL;
constexpr std::uint64_t kSessionModel = 0x4c539de862efe990ULL;
constexpr std::uint64_t kOutOfCoreScores = 0x7c69fba4cd90d1caULL;
constexpr std::uint64_t kOutOfCoreModel = 0x11f9612987ddbaecULL;

struct Digests {
  std::uint64_t scores = 0;
  std::uint64_t model = 0;
};

std::uint64_t score_digest(const std::vector<DomainScore>& scores) {
  std::uint64_t digest = util::fnv1a64("segbench-scores");
  for (const auto& scored : scores) {
    digest = util::hash_combine(digest, util::fnv1a64(scored.name));
    digest = util::hash_combine(digest, std::bit_cast<std::uint64_t>(scored.score));
  }
  return digest;
}

std::uint64_t model_digest(const Segugio& detector) {
  std::ostringstream blob;
  detector.save(blob);
  return util::fnv1a64(blob.str());
}

class GoldenDigestTest : public ::testing::Test {
 protected:
  static SegugioConfig fast_config() {
    SegugioConfig config;
    config.forest.num_trees = 20;
    config.forest.num_threads = 1;
    return config;
  }

  // Generating a day advances the world's history stores, so every test
  // builds its own world and generates its days up front: the digests then
  // do not depend on which tests ran before.
  struct Days {
    sim::World world{sim::ScenarioConfig::small()};
    std::vector<dns::DayTrace> traces;
    std::vector<graph::NameSet> blacklists;
    graph::NameSet whitelist;

    Days(dns::Day first, dns::Day count) {
      for (dns::Day day = first; day < first + count; ++day) {
        traces.push_back(world.generate_day(0, day));
        blacklists.push_back(world.blacklist().as_of(sim::BlacklistKind::kCommercial, day));
      }
      whitelist = world.whitelist().all();
    }
  };

  void TearDown() override {
    for (const auto& path : files_) {
      std::filesystem::remove(path);
    }
  }

  std::string temp_path(const std::string& suffix) {
    files_.push_back((std::filesystem::temp_directory_path() /
                      ("seg_golden_" + std::to_string(::getpid()) + suffix))
                         .string());
    return files_.back();
  }

  // Runs `flow` at 1 and at 8 threads; both runs must give `expected`.
  template <typename Flow>
  static void expect_golden(const Flow& flow, const Digests& expected) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      util::set_parallelism(threads);
      const Digests got = flow();
      EXPECT_EQ(got.scores, expected.scores)
          << "score digest at " << threads << " threads: 0x" << std::hex << got.scores;
      EXPECT_EQ(got.model, expected.model)
          << "model digest at " << threads << " threads: 0x" << std::hex << got.model;
    }
    util::set_parallelism(0);
  }

  std::vector<std::string> files_;
};

TEST_F(GoldenDigestTest, OneShotFlow) {
  const Days days(4, 2);
  const auto& w = days.world;
  const auto flow = [&] {
    const auto options = fast_config().prepare_options();
    const auto train = Segugio::prepare_graph(days.traces[0], w.psl(), days.blacklists[0],
                                              days.whitelist, options);
    const auto test = Segugio::prepare_graph(days.traces[1], w.psl(), days.blacklists[1],
                                             days.whitelist, options);
    Segugio detector(fast_config());
    detector.train(train.graph, w.activity(), w.pdns());
    const auto report = detector.classify(test.graph, w.activity(), w.pdns());
    return Digests{score_digest(report.scores), model_digest(detector)};
  };
  expect_golden(flow, {kOneShotScores, kOneShotModel});
}

TEST_F(GoldenDigestTest, StreamedSession) {
  const Days days(1, 3);
  const auto& w = days.world;
  dns::DayTrace stream;  // the three days back to back, as a capture holds them
  for (const auto& trace : days.traces) {
    stream.records.insert(stream.records.end(), trace.records.begin(), trace.records.end());
  }
  const auto flow = [&] {
    Pipeline pipeline(w.psl(), w.activity(), w.pdns(), fast_config());
    dns::DayTraceSource source(stream);
    std::vector<DomainScore> scores;
    std::size_t index = 0;
    pipeline.ingest_stream(
        source,
        [&](dns::Day day) -> const graph::NameSet& {
          return days.blacklists[static_cast<std::size_t>(day - 1)];
        },
        days.whitelist, [&](PreparedDay&& day) {
          if (index++ == 0) {
            pipeline.train(day);
            return;
          }
          const auto report = pipeline.classify(day);
          scores.insert(scores.end(), report.scores.begin(), report.scores.end());
        });
    EXPECT_EQ(index, 3u);
    return Digests{score_digest(scores), model_digest(pipeline.detector())};
  };
  expect_golden(flow, {kSessionScores, kSessionModel});
}

TEST_F(GoldenDigestTest, OutOfCoreFlow) {
  const Days days(7, 2);
  const auto& w = days.world;
  std::vector<std::string> traces;
  std::vector<std::string> graphs;
  for (std::size_t i = 0; i < days.traces.size(); ++i) {
    traces.push_back(temp_path(".day" + std::to_string(i) + ".bin"));
    graphs.push_back(temp_path(".day" + std::to_string(i) + ".graphc"));
    dns::write_trace_binary(days.traces[i], traces.back());
  }
  const auto flow = [&] {
    graph::OutOfCoreConfig ooc;
    ooc.pruning = fast_config().pruning;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      graph::prepare_graph_out_of_core(traces[i], w.psl(), days.blacklists[i], days.whitelist,
                                       graphs[i], ooc);
    }
    const auto train = graph::map_graph(graphs[0]);
    const auto test = graph::map_graph(graphs[1]);
    Segugio detector(fast_config());
    detector.train(train.view, w.activity(), w.pdns());
    const auto report = detector.classify(test.view, w.activity(), w.pdns());
    return Digests{score_digest(report.scores), model_digest(detector)};
  };
  expect_golden(flow, {kOutOfCoreScores, kOutOfCoreModel});
}

}  // namespace
}  // namespace seg::core
