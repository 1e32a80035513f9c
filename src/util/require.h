// Precondition / invariant checking helpers.
//
// Following the Core Guidelines (I.6, E.12) we express preconditions as
// checked requirements that throw on violation rather than macros that
// abort. These are used for programmer-facing contract violations; data
// errors use seg::util::ParseError and friends.
#pragma once

#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

namespace seg::util {

/// Thrown when a function precondition is violated.
class PreconditionError : public std::logic_error {
 public:
  explicit PreconditionError(const std::string& what) : std::logic_error(what) {}
};

/// Thrown when malformed external data is encountered (logs, CSV, domain
/// strings, ...). Distinct from PreconditionError so callers can recover
/// from bad input without masking programming bugs.
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

/// Checks a precondition; throws PreconditionError with `message` when
/// `condition` is false. Intentionally always-on (not compiled out): the
/// library's hot paths avoid calling this per-element.
inline void require(bool condition, std::string_view message) {
  if (!condition) {
    throw PreconditionError(std::string(message));
  }
}

/// Checks validity of parsed external data; throws ParseError when false.
inline void require_data(bool condition, std::string_view message) {
  if (!condition) {
    throw ParseError(std::string(message));
  }
}

/// Closes an output file after its last write; throws ParseError naming
/// `path` when any write to it failed (a full disk, /dev/full), so no
/// writer reports a file it did not write.
void close_output(std::ofstream& out, const std::string& path);

/// One piece of a throw_parse_error() message: text, or an unsigned integer
/// printed in decimal exactly as std::to_string prints it.
class MessagePart {
 public:
  // Implicit by design: call sites list their pieces inline.
  MessagePart(const char* text) : text_(text) {}
  MessagePart(std::string_view text) : text_(text) {}
  template <std::unsigned_integral T>
  MessagePart(T value) : number_(value), is_number_(true) {}

  void append_to(std::string& out) const;

 private:
  std::string_view text_;
  std::uint64_t number_ = 0;
  bool is_number_ = false;
};

/// Throws ParseError whose message is `parts` concatenated. Out of line and
/// cold: a check on a per-record path calls it only once the check has
/// failed, so a passing check never formats (or allocates) its message —
/// which require_data(cond, std::string(...) + ...) would, every call.
///
///   if (n > remaining) [[unlikely]] {
///     util::throw_parse_error({what, ": truncated (need ", n, " bytes)"});
///   }
[[noreturn, gnu::cold]] void throw_parse_error(std::initializer_list<MessagePart> parts);

}  // namespace seg::util
