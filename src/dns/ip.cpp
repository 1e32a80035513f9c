#include "dns/ip.h"

#include <charconv>

#include "util/require.h"
#include "util/strings.h"

namespace seg::dns {

IpV4 IpV4::parse(std::string_view text) {
  const auto parts = util::split(text, '.');
  if (parts.size() != 4) [[unlikely]] {
    util::throw_parse_error({"IpV4::parse: expected 4 octets in '", text, "'"});
  }
  std::uint32_t value = 0;
  for (const auto part : parts) {
    unsigned int octet = 0;
    const auto [ptr, ec] = std::from_chars(part.data(), part.data() + part.size(), octet);
    if (!(ec == std::errc() && ptr == part.data() + part.size() && octet <= 255 &&
          !part.empty() && part.size() <= 3)) [[unlikely]] {
      util::throw_parse_error({"IpV4::parse: malformed octet in '", text, "'"});
    }
    value = (value << 8) | octet;
  }
  return IpV4(value);
}

std::string IpV4::to_string() const {
  std::string out;
  out.reserve(15);
  out += std::to_string((value_ >> 24) & 0xff);
  out += '.';
  out += std::to_string((value_ >> 16) & 0xff);
  out += '.';
  out += std::to_string((value_ >> 8) & 0xff);
  out += '.';
  out += std::to_string(value_ & 0xff);
  return out;
}

}  // namespace seg::dns
