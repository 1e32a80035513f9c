// Line-by-line reader of the segf1 text stores (the domain-activity index
// and the passive-DNS store). It counts lines, so every malformed one is a
// util::ParseError naming the loader, the section and the line: a token
// that is not an integer in range, a key that is not a decimal uint32, a
// key or name with no day, and content after the last counted line.
#pragma once

#include <cstdint>
#include <istream>
#include <string>
#include <string_view>

#include "dns/types.h"

namespace seg::dns {

class StoreTextReader {
 public:
  /// `loader` prefixes every error message ("PassiveDnsDb::load").
  StoreTextReader(std::istream& in, std::string_view loader) : in_(in), loader_(loader) {}

  /// Reads the `segf1 <magic> <version>` line (util/serialize.h).
  void format_header(std::string_view magic, int latest_version);

  /// Reads a `<tag> <count>` line, opens section `tag` and returns the count.
  std::uint64_t section(std::string_view tag);

  /// Reads the section's next line and returns its first token, the key.
  std::string_view entry();

  /// The current line's key as a decimal uint32.
  std::uint32_t key_u32(std::string_view key) const;

  /// Inserts the current line's remaining tokens, each a day, into `days`.
  /// Days may come in any order and repeat; a line without one is an error.
  void days(DaySet& days);

  /// Requires nothing but whitespace after the last counted line.
  void end();

 private:
  /// Reads the next line into line_; throws at the end of the stream.
  void next_line();
  /// The next whitespace-separated token of the current line; empty at its end.
  std::string_view token();
  [[noreturn]] void fail(std::string_view problem) const;

  std::istream& in_;
  std::string_view loader_;
  std::string section_ = "header";
  std::string line_;
  std::size_t line_number_ = 0;
  std::size_t cursor_ = 0;  ///< offset of the unread part of line_
};

}  // namespace seg::dns
