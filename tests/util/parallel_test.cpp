#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace seg::util {
namespace {

class ParallelTest : public ::testing::Test {
 protected:
  // Each test sets its own width; restore the default so later suites (and
  // the shared pool they inherit) are unaffected.
  void TearDown() override { set_parallelism(0); }
};

TEST_F(ParallelTest, SetParallelismControlsSharedPoolSize) {
  set_parallelism(3);
  EXPECT_EQ(parallelism(), 3u);
  EXPECT_EQ(shared_pool().size(), 3u);
  set_parallelism(1);
  EXPECT_EQ(parallelism(), 1u);
}

TEST_F(ParallelTest, ParallelForCoversEveryIndexOnce) {
  set_parallelism(4);
  std::vector<std::atomic<int>> hits(997);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST_F(ParallelTest, ParallelForRunsInlineWithOneWorker) {
  set_parallelism(1);
  std::vector<int> hits(100, 0);  // plain ints: safe only if truly serial
  parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST_F(ParallelTest, ParallelForPropagatesExceptions) {
  set_parallelism(4);
  EXPECT_THROW(
      parallel_for(64,
                   [](std::size_t i) {
                     if (i == 17) {
                       throw std::runtime_error("boom");
                     }
                   }),
      std::runtime_error);
}

TEST_F(ParallelTest, ParallelChunksPartitionIsIndependentOfPoolSize) {
  const auto collect = [](std::size_t count, std::size_t chunks) {
    std::vector<std::pair<std::size_t, std::size_t>> ranges(chunks, {0, 0});
    parallel_chunks(count, chunks, [&](std::size_t c, std::size_t begin, std::size_t end) {
      ranges[c] = {begin, end};
    });
    return ranges;
  };
  set_parallelism(1);
  const auto serial = collect(1000, 7);
  set_parallelism(5);
  const auto parallel = collect(1000, 7);
  EXPECT_EQ(serial, parallel);
  // Chunks are contiguous and cover [0, count).
  std::size_t covered = 0;
  for (const auto& [begin, end] : serial) {
    EXPECT_EQ(begin, covered);
    covered = end;
  }
  EXPECT_EQ(covered, 1000u);
}

TEST_F(ParallelTest, ParallelChunksBalanceSizesWithinOne) {
  const auto sizes = [](std::size_t count, std::size_t chunks) {
    std::vector<std::size_t> out(chunks, 0);
    parallel_chunks(count, chunks, [&](std::size_t c, std::size_t begin, std::size_t end) {
      out[c] = end - begin;
    });
    return out;
  };
  for (const std::size_t pool : {1, 3}) {
    set_parallelism(pool);
    EXPECT_EQ(sizes(16, 3), (std::vector<std::size_t>{6, 5, 5})) << "pool " << pool;
    EXPECT_EQ(sizes(10, 4), (std::vector<std::size_t>{3, 3, 2, 2})) << "pool " << pool;
    // Every chunk gets work: ceil(24 / 7) = 4 would leave the seventh empty.
    EXPECT_EQ(sizes(24, 7), (std::vector<std::size_t>{4, 4, 4, 3, 3, 3, 3})) << "pool " << pool;
    // Fewer items than chunks: one item per chunk, and no call past count.
    EXPECT_EQ(sizes(3, 5), (std::vector<std::size_t>{1, 1, 1, 0, 0})) << "pool " << pool;
  }
}

TEST_F(ParallelTest, ParallelChunksPropagatesExceptions) {
  set_parallelism(4);
  EXPECT_THROW(parallel_chunks(100, 8,
                               [](std::size_t chunk, std::size_t, std::size_t) {
                                 if (chunk == 3) {
                                   throw std::runtime_error("chunk boom");
                                 }
                               }),
               std::runtime_error);
}

TEST_F(ParallelTest, DefaultChunkCountNeverExceedsCountOrPool) {
  set_parallelism(6);
  EXPECT_EQ(default_chunk_count(3), 3u);
  EXPECT_EQ(default_chunk_count(100), 6u);
  EXPECT_EQ(default_chunk_count(0), 1u);
}

}  // namespace
}  // namespace seg::util
