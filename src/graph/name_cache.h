// Carried domain-name dictionary for streaming multi-day graph builds.
//
// Re-validating, normalizing, and PSL-annotating every domain name from
// scratch each day is wasted work in an online deployment: the bulk of a
// day's distinct names were already seen the day before (ROADMAP "streaming
// multi-day builds"). The cache memoizes, per raw query name, the three
// derived facts the builder needs — validity, the normalized form, and the
// effective 2LD — sharded by name hash so the post-build merge of a day's
// new names runs in parallel.
//
// The cache deliberately stores *no ids*: per-day graph ids must follow
// that day's first-occurrence order to stay bit-identical to a from-scratch
// build (the determinism contract in docs/streaming.md), so the builder
// interns ids per day and only the derived name facts carry over.
//
// Thread safety: find() is safe to call concurrently with other find()
// calls (the scan phase); merge() must run exclusively (the builder calls
// it between the scan and assemble phases).
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"

namespace seg::graph {

/// Dictionary reuse counters for one streamed build.
struct CarryStats {
  std::size_t distinct_domains = 0;  ///< distinct valid domain names in the build
  std::size_t new_names = 0;         ///< of those, not served from the carried cache
  std::size_t cached_names = 0;      ///< cache keys after the day's merge
  /// Fraction of the day's distinct domain names whose derived facts came
  /// from the carried dictionary.
  double reuse_ratio() const {
    return distinct_domains > 0
               ? 1.0 - static_cast<double>(new_names) / static_cast<double>(distinct_domains)
               : 0.0;
  }
};

class NameCache {
 public:
  /// `num_shards` only controls merge parallelism, never lookup results;
  /// the default spreads a day's new names across typical core counts.
  explicit NameCache(std::size_t num_shards = 64);

  struct Entry {
    std::string normalized;  ///< empty when !valid
    std::string e2ld;        ///< psl e2ld_or_self(normalized); empty when !valid
    bool valid = false;
  };

  /// Derived facts for a raw query name, or nullptr when never seen.
  /// The returned pointer stays valid for the cache's lifetime.
  const Entry* find(std::string_view name) const;

  /// One name discovered during a build's scan phase (facts computed by the
  /// discovering shard).
  struct NewName {
    std::string raw;
    std::string normalized;
    std::string e2ld;
    bool valid = false;
  };

  /// Merges per-source new-name lists into the cache: every name is keyed
  /// by its raw spelling and, when valid, also by its normalized form (so
  /// assemble-phase lookups by normalized name always hit). Duplicate keys
  /// across sources collapse on first insertion, scanning sources in order.
  /// Returns the number of distinct valid normalized names newly added.
  std::size_t merge(const std::vector<std::vector<NewName>>& per_source);

  /// Total stored keys (raw spellings plus normalized aliases).
  std::size_t size() const;

  /// Writes the dictionary as a `segf1 namecache 1` text stream. Keys are
  /// emitted in sorted order, so the bytes are identical for any shard
  /// count and any merge history that produced the same key set. Keys and
  /// facts are percent-escaped, so raw spellings containing whitespace
  /// round-trip.
  void save(std::ostream& out) const;

  /// Reads a stream written by save() into a fresh cache with `num_shards`
  /// shards (shard count affects merge parallelism only, never lookups, so
  /// it is a load-time choice rather than part of the format). A stream
  /// without the segf1 header throws util::ParseError.
  static NameCache load(std::istream& in, std::size_t num_shards = 64);

 private:
  struct Shard {
    StringIdMap<std::uint32_t> ids;  // key -> index into entries
    std::deque<Entry> entries;       // deque: stable Entry addresses
  };

  std::size_t shard_of(std::string_view name) const;

  std::vector<Shard> shards_;
};

}  // namespace seg::graph
