// LEB128 varints, delta-coded ascending runs, and block-coded runs.
//
// The out-of-core spill runs (graph/oocore.h) store their sorted, distinct
// edge and IP pair keys as delta-coded runs of unsigned LEB128 varints:
// the first value is stored verbatim, every later one as
// (value - previous - 1), so dense runs cost one byte per element. A
// block-coded run restarts that coding every fixed number of values and
// keeps an index of its blocks, so a reader can start at any block. The
// decoders are bounds-checked and throw util::ParseError on truncated,
// overlong or inconsistent input — a corrupted byte must never turn into
// silent garbage ids.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/require.h"

namespace seg::util {

/// Largest encoded size of one varint (ceil(64 / 7) bytes).
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Appends `value` to `out` (a byte container: std::string, a vector of
/// char) as an unsigned LEB128 varint (1-10 bytes).
template <typename Bytes>
void append_varint(Bytes& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>(static_cast<unsigned char>(value) | 0x80u));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

/// Decodes one varint from [p, end), advancing `p` past it. Throws
/// ParseError when the stream is truncated mid-varint or the encoding is
/// overlong (more than 10 bytes, or bits beyond 2^64 in the 10th byte).
inline std::uint64_t decode_varint(const unsigned char*& p, const unsigned char* end) {
  std::uint64_t value = 0;
  unsigned shift = 0;
  while (true) {
    require_data(p != end, "decode_varint: truncated varint");
    const unsigned char byte = *p++;
    if (shift == 63) {
      // 10th byte: only the low bit may carry payload, and it must be final.
      require_data(byte <= 1, "decode_varint: varint overflows 64 bits");
    }
    value |= static_cast<std::uint64_t>(byte & 0x7fu) << shift;
    if ((byte & 0x80u) == 0) {
      return value;
    }
    shift += 7;
    require_data(shift < 64, "decode_varint: varint longer than 10 bytes");
  }
}

/// Appends a strictly-ascending run: values[0] verbatim, then
/// (values[i] - values[i-1] - 1) for each following element. The run
/// length is not stored — callers keep the count alongside the run.
template <typename Bytes, typename T>
void append_ascending_run(Bytes& out, std::span<const T> values) {
  if (values.empty()) {
    return;
  }
  append_varint(out, static_cast<std::uint64_t>(values[0]));
  for (std::size_t i = 1; i < values.size(); ++i) {
    require(values[i] > values[i - 1], "append_ascending_run: values not strictly ascending");
    const auto prev = static_cast<std::uint64_t>(values[i - 1]);
    append_varint(out, static_cast<std::uint64_t>(values[i]) - prev - 1);
  }
}

/// One block of a block-coded run (append_block_run).
struct RunBlock {
  std::uint64_t first = 0;   ///< the block's first value, stored verbatim
  std::uint64_t offset = 0;  ///< byte offset of the block within its run
  std::uint64_t count = 0;   ///< values in the block (at least one)
};

/// Appends a strictly-ascending run as blocks of `block_values` values
/// (the last may be shorter), each coded as append_ascending_run codes a
/// run, and appends one RunBlock per block to `blocks`. A reader can then
/// decode from any block start (BlockRunCursor).
template <typename Bytes, typename T>
void append_block_run(Bytes& out, std::span<const T> values, std::size_t block_values,
                      std::vector<RunBlock>& blocks) {
  require(block_values > 0, "append_block_run: block_values must be positive");
  const std::size_t start = out.size();
  for (std::size_t i = 0; i < values.size(); i += block_values) {
    const auto block = values.subspan(i, std::min(block_values, values.size() - i));
    require(i == 0 || block[0] > values[i - 1],
            "append_block_run: values not strictly ascending");
    blocks.push_back({static_cast<std::uint64_t>(block[0]), out.size() - start, block.size()});
    append_ascending_run(out, block);
  }
}

/// Reads a block-coded run from one of its blocks to its end. Each block's
/// bytes end where the next block's begin (the last block's at the end of
/// the run); a block whose values overrun those bytes or leave some
/// unread, whose first value is not the one the index records, or that
/// does not ascend from the block before it is a ParseError.
class BlockRunCursor {
 public:
  BlockRunCursor() = default;

  /// Decodes the run whose bytes are `run` and whose index is `blocks`,
  /// starting at block `block` (blocks.size() reads nothing).
  BlockRunCursor(std::span<const unsigned char> run, std::span<const RunBlock> blocks,
                 std::size_t block)
      : run_(run), blocks_(blocks), next_block_(block) {}

  /// The next value; false once the run is exhausted.
  bool next(std::uint64_t& value) {
    if (left_ == 0) {
      if (next_block_ == blocks_.size()) {
        return false;
      }
      value = open_block(next_block_++);
    } else {
      const auto raw = decode_varint(p_, end_);
      require_data(raw < ~prev_, "BlockRunCursor: value overflows 64 bits");
      value = prev_ + raw + 1;
    }
    prev_ = value;
    if (--left_ == 0) {
      require_data(p_ == end_, "BlockRunCursor: block has bytes beyond its count");
    }
    return true;
  }

 private:
  std::uint64_t open_block(std::size_t b) {
    const RunBlock& block = blocks_[b];
    const std::uint64_t end = b + 1 < blocks_.size() ? blocks_[b + 1].offset : run_.size();
    require_data(block.offset <= end && end <= run_.size() && block.count > 0,
                 "BlockRunCursor: block index out of range");
    p_ = run_.data() + block.offset;
    end_ = run_.data() + end;
    left_ = block.count;
    const auto first = decode_varint(p_, end_);
    require_data(first == block.first, "BlockRunCursor: block does not start at its index value");
    require_data(!opened_ || first > prev_, "BlockRunCursor: blocks not ascending");
    opened_ = true;
    return first;
  }

  std::span<const unsigned char> run_;
  std::span<const RunBlock> blocks_;
  std::size_t next_block_ = 0;
  const unsigned char* p_ = nullptr;
  const unsigned char* end_ = nullptr;
  std::uint64_t left_ = 0;
  std::uint64_t prev_ = 0;
  bool opened_ = false;
};

}  // namespace seg::util
