// Domain activity history.
//
// The F2 features measure *domain activity* rather than registration age
// (Section II-A3): over the n = 14 days preceding the graph day, how many
// days was the domain actively queried, and how many consecutive days ending
// at the graph day. Both are measured for the FQDN and for its effective
// 2LD. This index stores, per name, the sorted set of days on which it was
// queried anywhere in the monitored network.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dns/types.h"
#include "util/hash.h"

namespace seg::dns {

class DomainActivityIndex {
 public:
  /// Marks `name` (an FQDN or an e2LD; the caller chooses the granularity)
  /// as actively queried on `day`. Idempotent per (name, day).
  void mark_active(std::string_view name, Day day);

  /// Number of distinct active days in [from, to] inclusive.
  int active_days(std::string_view name, Day from, Day to) const;

  /// Number of consecutive active days ending exactly at `day` (0 when the
  /// name was not active on `day` itself).
  int consecutive_days_ending(std::string_view name, Day day) const;

  /// First day the name was ever seen; nullopt when never seen. (Days can
  /// legitimately be negative — the simulated warmup period predates day
  /// zero — so no sentinel value exists.)
  std::optional<Day> first_seen(std::string_view name) const;

  std::size_t tracked_names() const { return days_.size(); }

  /// Folds `other`'s observations into this index: afterwards every name
  /// holds the union of both day sets. Idempotent: absorbing the same index
  /// twice changes nothing.
  void absorb(const DomainActivityIndex& other);

  /// Text serialization: one `name day day ...` line per tracked name,
  /// prefixed with the versioned `segf1 activity <version>` header
  /// (util/serialize.h). load() throws util::ParseError on a stream without
  /// the header.
  void save(std::ostream& out) const;
  static DomainActivityIndex load(std::istream& in);

  /// 2 = segf1 header; 1 was the headerless form, no longer read.
  static constexpr int kFormatVersion = 2;

 private:
  util::StringMap<std::vector<Day>> days_;
};

}  // namespace seg::dns
