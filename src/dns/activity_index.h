// Domain activity history.
//
// The F2 features measure *domain activity* rather than registration age
// (Section II-A3): over the n = 14 days preceding the graph day, how many
// days was the domain actively queried, and how many consecutive days ending
// at the graph day. Both are measured for the FQDN and for its effective
// 2LD. This index stores, per name, the set of days on which it was queried
// anywhere in the monitored network, as 64-day bit words (dns::DaySet).
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "dns/types.h"
#include "util/hash.h"

namespace seg::dns {

class DomainActivityIndex {
 public:
  /// Marks `name` (an FQDN or an e2LD; the caller chooses the granularity)
  /// as actively queried on `day`. Idempotent per (name, day).
  void mark_active(std::string_view name, Day day);

  /// Number of distinct active days in [from, to] inclusive. An inverted
  /// window (from > to) gives minus the active days strictly between its
  /// ends: upper_bound(to) - lower_bound(from) over the sorted days.
  int active_days(std::string_view name, Day from, Day to) const;

  /// Number of consecutive active days ending exactly at `day` (0 when the
  /// name was not active on `day` itself).
  int consecutive_days_ending(std::string_view name, Day day) const;

  /// First day the name was ever seen; nullopt when never seen. (Days can
  /// legitimately be negative — the simulated warmup period predates day
  /// zero — so no sentinel value exists.)
  std::optional<Day> first_seen(std::string_view name) const;

  std::size_t tracked_names() const { return days_.size(); }

  /// Text serialization: one `name day day ...` line per tracked name, days
  /// ascending, prefixed with the versioned `segf1 activity <version>`
  /// header (util/serialize.h). load() throws util::ParseError naming the
  /// line on a stream without the header, a day that is not an integer in
  /// range, a name with no day, fewer lines than the count, or content after
  /// the last counted line (docs/FORMATS.md); days may come in any order and
  /// repeat.
  void save(std::ostream& out) const;
  static DomainActivityIndex load(std::istream& in);

  /// 2 = segf1 header; 1 was the headerless form, no longer read.
  static constexpr int kFormatVersion = 2;

 private:
  util::StringMap<DaySet> days_;
};

}  // namespace seg::dns
