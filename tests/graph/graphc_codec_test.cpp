// Codec tests for the varint / delta-run / block-run primitives under the
// out-of-core spill runs. Corruption must surface as util::ParseError,
// never as silently wrong ids.
#include "util/varint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "util/require.h"
#include "util/rng.h"

namespace seg::util {
namespace {

std::uint64_t decode_all(const std::string& encoded, std::size_t expect_consumed) {
  const auto* p = reinterpret_cast<const unsigned char*>(encoded.data());
  const auto* end = p + encoded.size();
  const auto value = decode_varint(p, end);
  EXPECT_EQ(static_cast<std::size_t>(p - reinterpret_cast<const unsigned char*>(encoded.data())),
            expect_consumed);
  return value;
}

// Reads a delta-coded run back the way the spill reader does: the first
// value verbatim, every later one as previous + delta + 1.
std::vector<std::uint64_t> decode_run(const std::string& run, std::size_t count) {
  const auto* p = reinterpret_cast<const unsigned char*>(run.data());
  const auto* end = p + run.size();
  std::vector<std::uint64_t> values;
  for (std::size_t i = 0; i < count; ++i) {
    const auto raw = decode_varint(p, end);
    values.push_back(i == 0 ? raw : values.back() + raw + 1);
  }
  EXPECT_EQ(p, end) << "a run must be consumed exactly";
  return values;
}

TEST(VarintTest, BoundaryValuesRoundTripAtExpectedWidths) {
  // Every 7-bit width boundary: the largest value of each width and the
  // first value of the next.
  const struct {
    std::uint64_t value;
    std::size_t bytes;
  } cases[] = {
      {0, 1},
      {1, 1},
      {127, 1},
      {128, 2},
      {16383, 2},
      {16384, 3},
      {(std::uint64_t{1} << 21) - 1, 3},
      {std::uint64_t{1} << 21, 4},
      {(std::uint64_t{1} << 28) - 1, 4},
      {std::uint64_t{1} << 28, 5},
      {(std::uint64_t{1} << 35) - 1, 5},
      {(std::uint64_t{1} << 42) - 1, 6},
      {(std::uint64_t{1} << 49) - 1, 7},
      {(std::uint64_t{1} << 56) - 1, 8},
      {(std::uint64_t{1} << 63) - 1, 9},
      {std::uint64_t{1} << 63, 10},
      {std::numeric_limits<std::uint64_t>::max(), 10},
  };
  for (const auto& c : cases) {
    std::string encoded;
    append_varint(encoded, c.value);
    EXPECT_EQ(encoded.size(), c.bytes) << "value " << c.value;
    EXPECT_LE(encoded.size(), kMaxVarintBytes);
    EXPECT_EQ(decode_all(encoded, c.bytes), c.value);
  }
}

TEST(VarintTest, TruncatedStreamThrowsParseError) {
  std::string encoded;
  append_varint(encoded, std::numeric_limits<std::uint64_t>::max());
  ASSERT_EQ(encoded.size(), kMaxVarintBytes);
  // Every proper prefix must reject: the continuation bit of the last
  // retained byte promises more input.
  for (std::size_t keep = 0; keep < encoded.size(); ++keep) {
    const auto* begin = reinterpret_cast<const unsigned char*>(encoded.data());
    const auto* p = begin;
    EXPECT_THROW(decode_varint(p, begin + keep), ParseError) << "prefix " << keep;
  }
}

TEST(VarintTest, OverlongEncodingsAreRejected) {
  // 10 continuation bytes followed by a terminator: longer than any valid
  // 64-bit varint.
  std::string eleven(10, static_cast<char>(0x80));
  eleven.push_back(0x01);
  const auto* p = reinterpret_cast<const unsigned char*>(eleven.data());
  EXPECT_THROW(decode_varint(p, p + eleven.size()), ParseError);

  // 10 bytes, but the final byte carries payload beyond bit 63.
  std::string overflow(9, static_cast<char>(0x80));
  overflow.push_back(0x02);
  p = reinterpret_cast<const unsigned char*>(overflow.data());
  EXPECT_THROW(decode_varint(p, p + overflow.size()), ParseError);

  // Same shape but final byte 0x01 is exactly 2^63 — valid.
  std::string max_bit(9, static_cast<char>(0x80));
  max_bit.push_back(0x01);
  p = reinterpret_cast<const unsigned char*>(max_bit.data());
  EXPECT_EQ(decode_varint(p, p + max_bit.size()), std::uint64_t{1} << 63);
}

TEST(VarintTest, AscendingRunRejectsNonAscendingInput) {
  std::string out;
  const std::uint32_t flat[] = {3, 3};
  EXPECT_THROW(append_ascending_run(out, std::span<const std::uint32_t>(flat)),
               PreconditionError);
  const std::uint32_t down[] = {3, 2};
  EXPECT_THROW(append_ascending_run(out, std::span<const std::uint32_t>(down)),
               PreconditionError);
}

TEST(VarintTest, AscendingRunBoundaries) {
  // Adjacent values cost one byte each after the first; the full-range run
  // {0, 2^64-1} exercises the largest possible delta.
  const std::uint64_t dense[] = {5, 6, 7, 8};
  std::string out;
  append_ascending_run(out, std::span<const std::uint64_t>(dense));
  EXPECT_EQ(out.size(), 4u);  // varint(5) + three zero deltas

  const std::uint64_t extremes[] = {0, std::numeric_limits<std::uint64_t>::max()};
  out.clear();
  append_ascending_run(out, std::span<const std::uint64_t>(extremes));
  const auto decoded = decode_run(out, 2);
  EXPECT_EQ(decoded[0], extremes[0]);
  EXPECT_EQ(decoded[1], extremes[1]);
}

TEST(VarintTest, RandomizedRoundTrip) {
  Rng rng(20260808);
  for (int iteration = 0; iteration < 200; ++iteration) {
    // Mixed-magnitude values: small ids dominate real streams but wide
    // values must survive too.
    std::vector<std::uint64_t> values;
    const std::size_t count = 1 + rng.next_below(64);
    for (std::size_t i = 0; i < count; ++i) {
      const auto shift = static_cast<unsigned>(rng.next_below(64));
      values.push_back(rng.next() >> shift);
    }
    std::string encoded;
    for (const auto v : values) {
      append_varint(encoded, v);
    }
    const auto* p = reinterpret_cast<const unsigned char*>(encoded.data());
    const auto* end = p + encoded.size();
    for (const auto v : values) {
      EXPECT_EQ(decode_varint(p, end), v);
    }
    EXPECT_EQ(p, end) << "decoder must consume the stream exactly";

    // Delta-run round-trip over the sorted distinct values.
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    std::string run;
    append_ascending_run(run, std::span<const std::uint64_t>(values));
    EXPECT_EQ(decode_run(run, values.size()), values);
  }
}

// A block-coded run of `count` ascending values with gaps of every width,
// in blocks of `block_values`.
struct BlockRun {
  std::vector<std::uint64_t> values;
  std::string bytes;
  std::vector<RunBlock> blocks;

  std::span<const unsigned char> span() const {
    return {reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size()};
  }
};

BlockRun make_block_run(std::size_t count, std::size_t block_values) {
  BlockRun run;
  Rng rng(23);
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < count; ++i) {
    value += 1 + (rng.next_below(4) == 0 ? rng.next_below(std::uint64_t{1} << 40)
                                          : rng.next_below(3));
    run.values.push_back(value);
  }
  append_block_run(run.bytes, std::span<const std::uint64_t>(run.values), block_values,
                   run.blocks);
  return run;
}

std::vector<std::uint64_t> read_from(std::span<const unsigned char> bytes,
                                     std::span<const RunBlock> blocks, std::size_t block) {
  BlockRunCursor cursor(bytes, blocks, block);
  std::vector<std::uint64_t> values;
  std::uint64_t value = 0;
  while (cursor.next(value)) {
    values.push_back(value);
  }
  return values;
}

TEST(BlockRunTest, DecodingFromEveryBlockStartYieldsTheSuffix) {
  constexpr std::size_t kBlock = 7;
  const auto run = make_block_run(100, kBlock);
  ASSERT_EQ(run.blocks.size(), (100 + kBlock - 1) / kBlock);
  for (std::size_t b = 0; b < run.blocks.size(); ++b) {
    EXPECT_EQ(run.blocks[b].first, run.values[b * kBlock]) << "block " << b;
    EXPECT_EQ(run.blocks[b].count, std::min(kBlock, 100 - b * kBlock)) << "block " << b;
    const std::vector<std::uint64_t> suffix(
        run.values.begin() + static_cast<std::ptrdiff_t>(b * kBlock), run.values.end());
    EXPECT_EQ(read_from(run.span(), run.blocks, b), suffix) << "block " << b;
  }
  EXPECT_TRUE(read_from(run.span(), run.blocks, run.blocks.size()).empty());

  // Restarting costs one verbatim value per block over the plain run.
  std::string plain;
  append_ascending_run(plain, std::span<const std::uint64_t>(run.values));
  EXPECT_GE(run.bytes.size(), plain.size());
}

TEST(BlockRunTest, TruncatedBlockThrowsParseError) {
  const auto run = make_block_run(40, 8);
  for (std::size_t cut = 1; cut < run.bytes.size(); ++cut) {
    const auto bytes = run.span().first(run.bytes.size() - cut);
    // The block holding the cut, decoded from its start, must fail; so
    // must the whole run.
    std::size_t b = run.blocks.size() - 1;
    while (run.blocks[b].offset > bytes.size()) {
      --b;
    }
    EXPECT_THROW(read_from(bytes, run.blocks, b), ParseError) << "cut " << cut;
    EXPECT_THROW(read_from(bytes, run.blocks, 0), ParseError) << "cut " << cut;
  }
}

TEST(BlockRunTest, LyingIndexThrowsParseError) {
  const auto run = make_block_run(40, 8);
  for (std::size_t b = 0; b < run.blocks.size(); ++b) {
    for (const std::int64_t lie : {-1, 1}) {
      auto blocks = run.blocks;
      blocks[b].count =
          static_cast<std::uint64_t>(static_cast<std::int64_t>(blocks[b].count) + lie);
      EXPECT_THROW(read_from(run.span(), blocks, b), ParseError)
          << "block " << b << ", count off by " << lie;
    }
    auto blocks = run.blocks;
    blocks[b].count = 0;
    EXPECT_THROW(read_from(run.span(), blocks, b), ParseError) << "block " << b << ", count 0";
    blocks = run.blocks;
    ++blocks[b].first;
    EXPECT_THROW(read_from(run.span(), blocks, 0), ParseError) << "block " << b << ", first";
    if (b + 1 < run.blocks.size()) {
      blocks = run.blocks;
      blocks[b + 1].offset = run.bytes.size() + 1;
      EXPECT_THROW(read_from(run.span(), blocks, b), ParseError) << "block " << b << ", offset";
    }
  }
}

}  // namespace
}  // namespace seg::util
