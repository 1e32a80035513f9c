// RecordArena: a batch of query records of one day in one flat arena.
//
// Every record's machine and qname bytes sit in one buffer, its IPs in
// one array, and a row per record holds the offsets. The streaming
// pipeline's producer decodes into one reused QueryRecord and appends it
// here (core::Pipeline::ingest_stream); the preparation engine's scan
// batches are the same layout (graph/oocore.h), so a streamed arena joins
// a scan batch by bulk copies, never one string at a time. The buffers
// keep their capacity across clear(), so a recycled arena, once it has
// grown to fit the stream, fills without touching the heap. They take
// anonymous mappings (util::AnonymousAllocator), as the engine's other
// scan buffers do.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "dns/ip.h"
#include "dns/query_log.h"
#include "dns/types.h"
#include "util/mmap_file.h"
#include "util/require.h"

namespace seg::dns {

/// Where one record's bytes sit in its arena.
struct ArenaRow {
  std::size_t text = 0;  ///< offset of the machine bytes, then the qname's
  std::size_t ips = 0;   ///< offset into RecordArena::ips
  std::uint32_t machine_size = 0;
  std::uint32_t qname_size = 0;
  std::uint32_t ip_count = 0;
};

/// Records of one day in one flat arena; see the header comment.
struct RecordArena {
  template <typename T>
  using Buffer = std::vector<T, util::AnonymousAllocator<T>>;

  Buffer<char> text;
  Buffer<IpV4> ips;
  Buffer<ArenaRow> rows;
  Day day = 0;  ///< the day of every row; meaningless while empty

  std::size_t size() const { return rows.size(); }
  bool empty() const { return rows.empty(); }

  /// Empties the arena and keeps its capacity.
  void clear() {
    text.clear();
    ips.clear();
    rows.clear();
  }

  /// Appends a record of the arena's day (of any day when it is empty).
  /// Throws util::ParseError when a field outgrows a row's 32-bit sizes.
  void add(const QueryRecord& record) {
    constexpr std::size_t kMaxField = std::numeric_limits<std::uint32_t>::max();
    util::require_data(record.machine.size() <= kMaxField && record.qname.size() <= kMaxField &&
                           record.resolved_ips.size() <= kMaxField,
                       "RecordArena: record field too long");
    util::require(rows.empty() || record.day == day, "RecordArena: record of another day");
    day = record.day;
    ArenaRow& row = rows.emplace_back();
    row.text = text.size();
    row.machine_size = static_cast<std::uint32_t>(record.machine.size());
    row.qname_size = static_cast<std::uint32_t>(record.qname.size());
    text.insert(text.end(), record.machine.begin(), record.machine.end());
    text.insert(text.end(), record.qname.begin(), record.qname.end());
    row.ips = ips.size();
    row.ip_count = static_cast<std::uint32_t>(record.resolved_ips.size());
    ips.insert(ips.end(), record.resolved_ips.begin(), record.resolved_ips.end());
  }

  /// Appends rows [first, first + count) of `other`, a few bulk copies.
  void append(const RecordArena& other, std::size_t first, std::size_t count) {
    if (count == 0) {
      return;
    }
    util::require(first + count <= other.size(), "RecordArena::append: rows out of range");
    util::require(rows.empty() || other.day == day, "RecordArena::append: rows of another day");
    day = other.day;
    const std::size_t end = first + count;
    const ArenaRow& head = other.rows[first];
    const std::size_t text_end = end < other.size() ? other.rows[end].text : other.text.size();
    const std::size_t ips_end = end < other.size() ? other.rows[end].ips : other.ips.size();
    // Offsets move by the same amount for every row; unsigned wrap-around
    // keeps the sums exact when the rows move down.
    const std::size_t text_shift = text.size() - head.text;
    const std::size_t ips_shift = ips.size() - head.ips;
    text.insert(text.end(), other.text.begin() + static_cast<std::ptrdiff_t>(head.text),
                other.text.begin() + static_cast<std::ptrdiff_t>(text_end));
    ips.insert(ips.end(), other.ips.begin() + static_cast<std::ptrdiff_t>(head.ips),
               other.ips.begin() + static_cast<std::ptrdiff_t>(ips_end));
    const std::size_t at = rows.size();
    rows.insert(rows.end(), other.rows.begin() + static_cast<std::ptrdiff_t>(first),
                other.rows.begin() + static_cast<std::ptrdiff_t>(end));
    for (std::size_t i = at; i < rows.size(); ++i) {
      rows[i].text += text_shift;
      rows[i].ips += ips_shift;
    }
  }

  std::string_view machine(const ArenaRow& row) const {
    return {text.data() + row.text, row.machine_size};
  }
  std::string_view qname(const ArenaRow& row) const {
    return {text.data() + row.text + row.machine_size, row.qname_size};
  }
  std::span<const IpV4> row_ips(const ArenaRow& row) const {
    return {ips.data() + row.ips, row.ip_count};
  }
};

}  // namespace seg::dns
