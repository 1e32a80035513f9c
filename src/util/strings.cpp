#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <sstream>

#include "util/require.h"

namespace seg::util {

std::vector<std::string_view> split(std::string_view input, char delimiter) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = input.find(delimiter, start);
    if (pos == std::string_view::npos) {
      out.push_back(input.substr(start));
      return out;
    }
    out.push_back(input.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string_view> split_skip_empty(std::string_view input, char delimiter) {
  std::vector<std::string_view> out;
  for (auto part : split(input, delimiter)) {
    if (!part.empty()) {
      out.push_back(part);
    }
  }
  return out;
}

namespace {
template <typename Container>
std::string join_impl(const Container& parts, std::string_view delimiter) {
  std::string out;
  bool first = true;
  for (const auto& part : parts) {
    if (!first) {
      out += delimiter;
    }
    out += part;
    first = false;
  }
  return out;
}
}  // namespace

std::string join(const std::vector<std::string_view>& parts, std::string_view delimiter) {
  return join_impl(parts, delimiter);
}

std::string join(const std::vector<std::string>& parts, std::string_view delimiter) {
  return join_impl(parts, delimiter);
}

std::string_view trim(std::string_view input) {
  std::size_t begin = 0;
  std::size_t end = input.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(input[begin])) != 0) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(input[end - 1])) != 0) {
    --end;
  }
  return input.substr(begin, end - begin);
}

std::string to_lower(std::string_view input) {
  std::string out;
  out.reserve(input.size());
  for (char c : input) {
    out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

std::uint64_t parse_u64(std::string_view text) {
  text = trim(text);
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) [[unlikely]] {
    throw_parse_error({"parse_u64: malformed unsigned integer: '", text, "'"});
  }
  return value;
}

double parse_double(std::string_view text) {
  text = trim(text);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) [[unlikely]] {
    throw_parse_error({"parse_double: malformed floating-point value: '", text, "'"});
  }
  return value;
}

std::string format_double(double value, int digits) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(digits);
  os << value;
  return os.str();
}

std::string format_count(std::uint64_t value) {
  const auto scaled = [&](double divisor, const char* suffix) {
    std::ostringstream os;
    const double v = static_cast<double>(value) / divisor;
    os.setf(std::ios::fixed);
    os.precision(v >= 100 ? 0 : (v >= 10 ? 1 : 2));
    os << v << suffix;
    return os.str();
  };
  if (value >= 1'000'000'000ULL) {
    return scaled(1e9, "B");
  }
  if (value >= 1'000'000ULL) {
    return scaled(1e6, "M");
  }
  if (value >= 10'000ULL) {
    return scaled(1e3, "K");
  }
  return std::to_string(value);
}

}  // namespace seg::util
