// Shared primitive types for the DNS substrate.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace seg::dns {

/// Day index. Experiments use days relative to an arbitrary epoch (the
/// simulator's day 0); all windows in the paper (n = 14 days of activity
/// history, W = 5 months of pDNS history) are expressed in these units.
using Day = std::int32_t;

/// Number of days in the paper's pDNS history window W (~5 months).
inline constexpr Day kDefaultPdnsWindowDays = 150;

/// Number of days in the paper's domain-activity window n.
inline constexpr Day kDefaultActivityWindowDays = 14;

/// Inserts `day` into the sorted, duplicate-free list `days`. History is
/// fed mostly in day order, so the common case is an O(1) append.
inline void insert_day(std::vector<Day>& days, Day day) {
  if (days.empty() || days.back() < day) {
    days.push_back(day);
    return;
  }
  if (days.back() == day) {
    return;  // a repeat of the newest day
  }
  const auto pos = std::lower_bound(days.begin(), days.end(), day);
  if (*pos != day) {
    days.insert(pos, day);
  }
}

}  // namespace seg::dns
