// LEB128 varints and delta-coded ascending runs.
//
// The out-of-core spill segments (graph/oocore.h) store their sorted,
// distinct edge and IP pair keys as delta-coded runs of unsigned LEB128
// varints: the first value is stored verbatim, every later one as
// (value - previous - 1), so dense runs cost one byte per element. The
// decoder is bounds-checked and throws util::ParseError on truncated or
// overlong input — a corrupted byte must never turn into silent garbage
// ids.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "util/require.h"

namespace seg::util {

/// Largest encoded size of one varint (ceil(64 / 7) bytes).
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Appends `value` to `out` as an unsigned LEB128 varint (1-10 bytes).
inline void append_varint(std::string& out, std::uint64_t value) {
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
template <typename T>
void append_ascending_run(std::string& out, std::span<const T> values) {
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

}  // namespace seg::util
