// Test-only reference for dns::DaySet.
//
// The sorted, duplicate-free day list that DomainActivityIndex and
// PassiveDnsDb kept per key before the 64-day words, with its queries as
// the stores ran them: active days as upper_bound(to) - lower_bound(from)
// (negative for an inverted window), the consecutive run walked back one
// day at a time, the first day at the front, and any-in-range as the first
// day not below `from`. The one edit is the run's expected day, held in 64
// bits so that a run reaching INT32_MIN does not overflow.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "dns/types.h"

namespace seg::dns::testing {

class SortedDayList {
 public:
  void insert(Day day) {
    if (days_.empty() || days_.back() < day) {
      days_.push_back(day);
      return;
    }
    if (days_.back() == day) {
      return;
    }
    const auto pos = std::lower_bound(days_.begin(), days_.end(), day);
    if (*pos != day) {
      days_.insert(pos, day);
    }
  }

  int active_days(Day from, Day to) const {
    const auto lo = std::lower_bound(days_.begin(), days_.end(), from);
    const auto hi = std::upper_bound(days_.begin(), days_.end(), to);
    return static_cast<int>(hi - lo);
  }

  int consecutive_days_ending(Day day) const {
    auto pos = std::lower_bound(days_.begin(), days_.end(), day);
    if (pos == days_.end() || *pos != day) {
      return 0;
    }
    int count = 1;
    std::int64_t expected = std::int64_t{day} - 1;
    while (pos != days_.begin()) {
      --pos;
      if (*pos != expected) {
        break;
      }
      ++count;
      --expected;
    }
    return count;
  }

  std::optional<Day> first_seen() const {
    return days_.empty() ? std::nullopt : std::optional<Day>(days_.front());
  }

  bool any_in_range(Day from, Day to) const {
    const auto lo = std::lower_bound(days_.begin(), days_.end(), from);
    return lo != days_.end() && *lo <= to;
  }

  const std::vector<Day>& days() const { return days_; }

 private:
  std::vector<Day> days_;
};

}  // namespace seg::dns::testing
