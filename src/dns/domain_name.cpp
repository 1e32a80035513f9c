#include "dns/domain_name.h"

#include <array>

#include "util/require.h"
#include "util/strings.h"

namespace seg::dns {

namespace {

// Bytes a label may hold: [A-Za-z0-9_-], what std::isalnum accepts after
// lowercasing in the C locale plus the two punctuation bytes labels may
// carry. Either case is accepted, so a name validates before (or without)
// its normalizing copy.
constexpr std::array<bool, 256> kLabelBytes = [] {
  std::array<bool, 256> table{};
  for (int c = 'a'; c <= 'z'; ++c) {
    table[static_cast<unsigned char>(c)] = true;
    table[static_cast<unsigned char>(c - 'a' + 'A')] = true;
  }
  for (int c = '0'; c <= '9'; ++c) {
    table[static_cast<unsigned char>(c)] = true;
  }
  table['-'] = true;
  table['_'] = true;
  return table;
}();

// A label is 1-63 bytes and neither starts nor ends with a hyphen.
bool valid_label(std::string_view name, std::size_t begin, std::size_t end) {
  const std::size_t len = end - begin;
  return len != 0 && len <= 63 && name[begin] != '-' && name[end - 1] != '-';
}

// Validates a candidate name without its trailing dot, in either case.
bool validate(std::string_view name) {
  if (name.empty() || name.size() > 253) {
    return false;
  }
  std::size_t label_start = 0;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (c == '.') {
      if (!valid_label(name, label_start, i)) {
        return false;
      }
      label_start = i + 1;
    } else if (!kLabelBytes[static_cast<unsigned char>(c)]) {
      return false;
    }
  }
  return valid_label(name, label_start, name.size());
}

std::string_view strip_trailing_dot(std::string_view text) {
  if (!text.empty() && text.back() == '.') {
    text.remove_suffix(1);
  }
  return text;
}

}  // namespace

DomainName DomainName::parse(std::string_view text) {
  const std::string_view stripped = strip_trailing_dot(text);
  if (!validate(stripped)) [[unlikely]] {
    util::throw_parse_error({"DomainName::parse: invalid domain name: '", text, "'"});
  }
  return DomainName(util::to_lower(stripped));
}

bool DomainName::is_valid(std::string_view text) {
  return validate(strip_trailing_dot(text));
}

bool DomainName::is_normalized(std::string_view text) {
  // Normalizing only lowercases ASCII letters and strips one trailing dot,
  // so a name is already normalized iff neither applies.
  if (text.empty() || text.back() == '.') {
    return false;
  }
  for (const char c : text) {
    if (c >= 'A' && c <= 'Z') {
      return false;
    }
  }
  return true;
}

std::vector<std::string_view> DomainName::labels() const {
  return util::split(name_, '.');
}

std::size_t DomainName::label_count() const {
  std::size_t count = 1;
  for (char c : name_) {
    count += (c == '.') ? 1 : 0;
  }
  return count;
}

std::string_view DomainName::tld() const {
  const auto pos = name_.rfind('.');
  return pos == std::string::npos ? std::string_view(name_)
                                  : std::string_view(name_).substr(pos + 1);
}

std::string_view DomainName::parent() const {
  const auto pos = name_.find('.');
  return pos == std::string::npos ? std::string_view()
                                  : std::string_view(name_).substr(pos + 1);
}

bool DomainName::is_subdomain_of(std::string_view ancestor) const {
  const std::string_view self(name_);
  if (self == ancestor) {
    return true;
  }
  return self.size() > ancestor.size() && util::ends_with(self, ancestor) &&
         self[self.size() - ancestor.size() - 1] == '.';
}

}  // namespace seg::dns
