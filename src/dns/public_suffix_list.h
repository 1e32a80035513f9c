// Public Suffix List matching and effective second-level domain (e2LD)
// extraction.
//
// The paper computes "effective second-level domains" using the Mozilla
// Public Suffix List augmented with a custom list of dynamic-DNS zones
// (Section II-A, footnote 2). This is a full implementation of the PSL
// matching algorithm (https://publicsuffix.org/list/):
//
//   - normal rules:     "co.uk" means *.co.uk registers at the third level
//   - wildcard rules:   "*.ck"  means every label under .ck is a suffix
//   - exception rules:  "!www.ck" carves an exception out of a wildcard
//   - prevailing rule when nothing matches is "*" (the bare TLD)
//
// The registrable domain (what the paper calls e2LD) is the public suffix
// plus one more label.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/hash.h"

namespace seg::dns {

class PublicSuffixList {
 public:
  /// An empty list; only the implicit "*" rule applies.
  PublicSuffixList() = default;

  /// Returns a list preloaded with a snapshot of common ICANN suffixes and
  /// the custom dynamic-DNS zones the paper adds (dyndns.org etc.).
  static PublicSuffixList with_default_rules();

  /// Adds one rule in PSL syntax ("co.uk", "*.ck", "!www.ck").
  /// Throws util::ParseError on malformed rules.
  void add_rule(std::string_view rule);

  /// Adds every non-comment line of `text` as a rule ("//"-prefixed lines
  /// and blanks are skipped, like the real PSL file format).
  void add_rules_from_text(std::string_view text);

  std::size_t rule_count() const;

  /// Longest matching public suffix of `domain` (always non-empty for a
  /// valid name: the implicit "*" rule matches the TLD). `domain` must be
  /// normalized lowercase without a trailing dot.
  std::string_view public_suffix(std::string_view domain) const;

  /// The registrable domain: public suffix plus one label. Returns
  /// std::nullopt when `domain` itself is (or is shorter than) a public
  /// suffix, e.g. "co.uk" has no e2LD.
  std::optional<std::string_view> registrable_domain(std::string_view domain) const;

  /// Convenience: e2LD of `domain`, or `domain` itself when it has no
  /// registrable part (matching how the paper treats bare suffix queries).
  std::string_view e2ld_or_self(std::string_view domain) const;

 private:
  enum class RuleKind { kNormal, kWildcard, kException };

  // Rules are stored by their literal label string (wildcard rules store the
  // suffix *without* the leading "*."), in separate sets per kind. The
  // transparent hash lets public_suffix() probe with string_views without
  // allocating per candidate suffix.
  util::StringSet normal_;
  util::StringSet wildcard_;   // "*.ck" stored as "ck"
  util::StringSet exception_;  // "!www.ck" stored as "www.ck"
};

/// The embedded snapshot used by with_default_rules(): common ICANN
/// suffixes plus dynamic-DNS / free-hosting zones. Exposed for tests.
std::string_view default_public_suffix_rules();

}  // namespace seg::dns
