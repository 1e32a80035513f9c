#include "dns/store_text.h"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "util/require.h"
#include "util/serialize.h"

namespace seg::dns {
namespace {

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f';
}

/// Parses all of `token` as a decimal T; false on any other character or
/// a value outside T's range.
template <typename T>
bool parse_integer(std::string_view token, T& value) {
  const auto* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  return ec == std::errc() && ptr == end;
}

}  // namespace

void StoreTextReader::format_header(std::string_view magic, int latest_version) {
  std::getline(in_, line_);
  ++line_number_;
  std::istringstream header(line_);
  (void)util::read_format_header(header, magic, latest_version);
}

std::uint64_t StoreTextReader::section(std::string_view tag) {
  section_ = tag;
  next_line();
  const bool tagged = token() == tag;
  std::uint64_t count = 0;
  if (!tagged || !parse_integer(token(), count) || !token().empty()) {
    fail("expected '" + section_ + " <count>', got '" + line_ + "'");
  }
  return count;
}

std::string_view StoreTextReader::entry() {
  next_line();
  if (std::all_of(line_.begin(), line_.end(), is_space)) {
    fail("empty line");
  }
  return token();
}

std::uint32_t StoreTextReader::key_u32(std::string_view key) const {
  std::uint32_t value = 0;
  if (!parse_integer(key, value)) {
    fail("key '" + std::string(key) + "' is not a decimal uint32");
  }
  return value;
}

void StoreTextReader::days(DaySet& days) {
  auto day_token = token();
  if (day_token.empty()) {
    fail("no day after '" + std::string(line_) + "'");
  }
  for (; !day_token.empty(); day_token = token()) {
    Day day = 0;
    if (!parse_integer(day_token, day)) {
      fail("day '" + std::string(day_token) + "' is not an integer in [-2^31, 2^31 - 1]");
    }
    days.insert(day);
  }
}

void StoreTextReader::end() {
  while (std::getline(in_, line_)) {
    ++line_number_;
    cursor_ = 0;
    if (const auto extra = token(); !extra.empty()) {
      fail("content after the last counted line: '" + line_ + "'");
    }
  }
}

void StoreTextReader::next_line() {
  ++line_number_;
  cursor_ = 0;
  if (!std::getline(in_, line_)) {
    fail("truncated: the stream ends before this line");
  }
}

std::string_view StoreTextReader::token() {
  while (cursor_ < line_.size() && is_space(line_[cursor_])) {
    ++cursor_;
  }
  const auto begin = cursor_;
  while (cursor_ < line_.size() && !is_space(line_[cursor_])) {
    ++cursor_;
  }
  return std::string_view(line_).substr(begin, cursor_ - begin);
}

void StoreTextReader::fail(std::string_view problem) const {
  util::throw_parse_error(
      {loader_, ": ", std::string_view(section_), " section, line ", line_number_, ": ", problem});
}

}  // namespace seg::dns
