#include "dns/domain_name.h"

#include <cctype>

#include "util/require.h"
#include "util/strings.h"

namespace seg::dns {

namespace {

bool is_label_char(char c) {
  const auto uc = static_cast<unsigned char>(c);
  return std::isalnum(uc) != 0 || c == '-' || c == '_';
}

// Validates a normalized (lowercase, no trailing dot) candidate name.
bool validate_normalized(std::string_view name) {
  if (name.empty() || name.size() > 253) {
    return false;
  }
  std::size_t label_start = 0;
  std::size_t label_count = 0;
  for (std::size_t i = 0; i <= name.size(); ++i) {
    if (i == name.size() || name[i] == '.') {
      const std::size_t len = i - label_start;
      if (len == 0 || len > 63) {
        return false;
      }
      const std::string_view label = name.substr(label_start, len);
      if (label.front() == '-' || label.back() == '-') {
        return false;
      }
      ++label_count;
      label_start = i + 1;
      continue;
    }
    if (!is_label_char(name[i])) {
      return false;
    }
  }
  return label_count >= 1;
}

std::string normalize(std::string_view text) {
  if (!text.empty() && text.back() == '.') {
    text.remove_suffix(1);
  }
  return util::to_lower(text);
}

}  // namespace

DomainName DomainName::parse(std::string_view text) {
  std::string normalized = normalize(text);
  if (!validate_normalized(normalized)) [[unlikely]] {
    util::throw_parse_error({"DomainName::parse: invalid domain name: '", text, "'"});
  }
  return DomainName(std::move(normalized));
}

bool DomainName::is_valid(std::string_view text) {
  return validate_normalized(normalize(text));
}

bool DomainName::is_normalized(std::string_view text) {
  // normalize() only lowercases ASCII letters and strips one trailing dot,
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
