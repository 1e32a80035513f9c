// Versioned on-disk format headers.
//
// Every text serialization in the project (Segugio models, the passive DNS
// database, the domain activity index) starts with one line:
//
//   segf1 <magic> <version>
//
// `segf1` marks the container ("segugio format, revision 1" of the header
// itself), `magic` names the payload kind, and `version` lets each payload
// evolve independently. The header is required: a stream without it is a
// ParseError.
#pragma once

#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "util/require.h"

namespace seg::util {

inline constexpr std::string_view kFormatTag = "segf1";

/// Writes the `segf1 <magic> <version>` header line.
inline void write_format_header(std::ostream& out, std::string_view magic, int version) {
  out << kFormatTag << ' ' << magic << ' ' << version << '\n';
}

/// Consumes the versioned header and returns the stream's format version.
/// Throws ParseError when the stream does not start with the `segf1` tag,
/// the magic mismatches, or the version is outside [1, latest_version].
inline int read_format_header(std::istream& in, std::string_view magic, int latest_version) {
  std::string tag;
  require_data(static_cast<bool>(in >> tag) && tag == kFormatTag,
               "read_format_header: stream has no 'segf1 " + std::string(magic) + "' header");
  std::string found_magic;
  int version = 0;
  in >> found_magic >> version;
  require_data(static_cast<bool>(in) && found_magic == magic,
               "read_format_header: expected magic '" + std::string(magic) + "', got '" +
                   found_magic + "'");
  require_data(version >= 1 && version <= latest_version,
               "read_format_header: unsupported " + std::string(magic) + " version " +
                   std::to_string(version) + " (latest supported: " +
                   std::to_string(latest_version) + ")");
  return version;
}

}  // namespace seg::util
