// Seeded property test of dns::DaySet and the two history stores built on
// it: every query must answer what the sorted day list the stores kept
// before (sorted_day_list.h) answers, for random sets around the word
// edges near day 0 and both ends of Day's range, inserted in order, in
// reverse and shuffled, with repeats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "dns/activity_index.h"
#include "dns/pdns.h"
#include "dns/types.h"
#include "sorted_day_list.h"
#include "util/rng.h"

namespace seg::dns {
namespace {

using testing::SortedDayList;

constexpr Day kMin = std::numeric_limits<Day>::min();
constexpr Day kMax = std::numeric_limits<Day>::max();

/// The days the random sets cluster around: the word edges near day 0 and
/// both ends of Day's range.
constexpr Day kAnchors[] = {kMin, -65, -64, -1, 0, 63, 64, kMax};

Day clamp_day(std::int64_t day) {
  return static_cast<Day>(std::clamp<std::int64_t>(day, kMin, kMax));
}

void shuffle(std::vector<Day>& days, util::Rng& rng) {
  for (std::size_t i = days.size(); i > 1; --i) {
    std::swap(days[i - 1], days[rng.next_below(i)]);
  }
}

/// Days to insert around `anchor`: runs of up to 260 days (three or more
/// full words) and scattered days, sometimes an end of Day's range, some
/// repeated, in order, in reverse or shuffled.
std::vector<Day> random_days(util::Rng& rng, Day anchor) {
  std::vector<Day> days;
  const auto pieces = 1 + rng.next_below(4);
  for (std::uint64_t piece = 0; piece < pieces; ++piece) {
    const std::int64_t start = std::int64_t{anchor} + rng.next_int(-200, 200);
    if (rng.next_below(2) == 0) {
      const auto length = static_cast<std::int64_t>(1 + rng.next_below(260));
      for (std::int64_t i = 0; i < length; ++i) {
        days.push_back(clamp_day(start + i));
      }
    } else {
      const auto scattered = 1 + rng.next_below(40);
      for (std::uint64_t i = 0; i < scattered; ++i) {
        days.push_back(clamp_day(start + rng.next_int(-70, 70)));
      }
    }
  }
  if (rng.next_below(4) == 0) {
    days.push_back(rng.next_below(2) == 0 ? kMin : kMax);
  }
  const auto repeats = rng.next_below(days.size() / 4 + 1);
  for (std::uint64_t i = 0; i < repeats; ++i) {
    days.push_back(days[rng.next_below(days.size())]);
  }
  switch (rng.next_below(3)) {
    case 0:
      std::sort(days.begin(), days.end());
      break;
    case 1:
      std::sort(days.begin(), days.end(), std::greater<>());
      break;
    default:
      shuffle(days, rng);
      break;
  }
  return days;
}

/// Query days: a sample of the set's days and their neighbours, every
/// anchor with its neighbours, and both ends of Day's range.
std::vector<Day> query_days(util::Rng& rng, const std::vector<Day>& days) {
  std::vector<Day> points = {kMin, kMax};
  for (const auto anchor : kAnchors) {
    for (std::int64_t offset : {-1, 0, 1}) {
      points.push_back(clamp_day(std::int64_t{anchor} + offset));
    }
  }
  for (int i = 0; i < 16 && !days.empty(); ++i) {
    const auto day = days[rng.next_below(days.size())];
    points.push_back(day);
    points.push_back(clamp_day(std::int64_t{day} + rng.next_int(-3, 3)));
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  return points;
}

/// Checks every DaySet query against the sorted list over all pairs of
/// `points`, inverted ranges included.
void expect_same_set(const DaySet& set, const SortedDayList& oracle,
                     const std::vector<Day>& points) {
  std::vector<Day> walked;
  set.for_each([&walked](Day day) { walked.push_back(day); });
  ASSERT_EQ(walked, oracle.days());
  ASSERT_EQ(set.empty(), oracle.days().empty());
  if (!set.empty()) {
    ASSERT_EQ(set.first(), oracle.first_seen());
  }
  for (const auto from : points) {
    ASSERT_EQ(set.run_ending(from), oracle.consecutive_days_ending(from)) << "day " << from;
    for (const auto to : points) {
      ASSERT_EQ(set.count(from, to), from <= to ? oracle.active_days(from, to) : 0)
          << "[" << from << ", " << to << "]";
      ASSERT_EQ(set.any_in(from, to), oracle.any_in_range(from, to))
          << "[" << from << ", " << to << "]";
    }
  }
}

/// Checks the stores' queries for one name and one IP holding `oracle`'s days.
void expect_same_stores(const DomainActivityIndex& activity, const PassiveDnsDb& pdns,
                        const SortedDayList& oracle, const std::vector<Day>& points) {
  const auto ip = IpV4::parse("10.20.30.40");
  const auto sibling = IpV4::parse("10.20.30.41");
  ASSERT_EQ(activity.first_seen("a.com"), oracle.first_seen());
  for (const auto from : points) {
    ASSERT_EQ(activity.consecutive_days_ending("a.com", from),
              oracle.consecutive_days_ending(from))
        << "day " << from;
    for (const auto to : points) {
      ASSERT_EQ(activity.active_days("a.com", from, to), oracle.active_days(from, to))
          << "[" << from << ", " << to << "]";
      ASSERT_EQ(pdns.ip_malware_associated(ip, from, to), oracle.any_in_range(from, to))
          << "[" << from << ", " << to << "]";
      ASSERT_EQ(pdns.prefix_malware_associated(sibling, from, to), oracle.any_in_range(from, to))
          << "[" << from << ", " << to << "]";
    }
  }
}

class DaySetPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DaySetPropertyTest, QueriesMatchTheSortedList) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    const auto anchor = kAnchors[rng.next_below(std::size(kAnchors))];
    const auto days = random_days(rng, anchor);
    DaySet set;
    SortedDayList oracle;
    DomainActivityIndex activity;
    PassiveDnsDb pdns;
    for (const auto day : days) {
      set.insert(day);
      oracle.insert(day);
      activity.mark_active("a.com", day);
      pdns.add_observation(day, IpV4::parse("10.20.30.40"), PdnsAssociation::kMalware);
    }
    SCOPED_TRACE("round " + std::to_string(round) + ", anchor " + std::to_string(anchor));
    const auto points = query_days(rng, oracle.days());
    expect_same_set(set, oracle, points);
    expect_same_stores(activity, pdns, oracle, points);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DaySetPropertyTest,
                         ::testing::Values(1ULL, 7ULL, 20150622ULL, 0xDA75E7ULL));

TEST(DaySetTest, WordEdgesAndRangeEnds) {
  DaySet set;
  for (const Day day : {64, 63, 0, -1, -64, -65}) {
    set.insert(day);
  }
  std::vector<Day> walked;
  set.for_each([&walked](Day day) { walked.push_back(day); });
  EXPECT_EQ(walked, (std::vector<Day>{-65, -64, -1, 0, 63, 64}));
  EXPECT_EQ(set.first(), -65);
  EXPECT_EQ(set.run_ending(-64), 2);  // -65, -64: across the word edge
  EXPECT_EQ(set.run_ending(0), 2);    // -1, 0
  EXPECT_EQ(set.run_ending(64), 2);   // 63, 64
  EXPECT_EQ(set.count(-64, 63), 4);
  EXPECT_EQ(set.count(-63, -2), 0);
  EXPECT_FALSE(set.any_in(1, 62));
  EXPECT_TRUE(set.any_in(62, 63));

  DaySet run;  // [-64, 191]: four full words
  for (Day day = 191; day >= -64; --day) {
    run.insert(day);
  }
  EXPECT_EQ(run.run_ending(191), 256);
  EXPECT_EQ(run.run_ending(128), 193);
  EXPECT_EQ(run.count(kMin, kMax), 256);

  DaySet ends;
  ends.insert(kMax);
  ends.insert(kMin);
  EXPECT_EQ(ends.first(), kMin);
  EXPECT_EQ(ends.run_ending(kMin), 1);
  EXPECT_EQ(ends.run_ending(kMax), 1);
  EXPECT_EQ(ends.count(kMin, kMax), 2);
  EXPECT_TRUE(ends.any_in(kMax, kMax));
  EXPECT_FALSE(ends.any_in(kMin + 1, kMax - 1));
  for (Day day = kMin; day < kMin + 64; ++day) {
    ends.insert(day);
  }
  EXPECT_EQ(ends.run_ending(kMin + 63), 64);  // the lowest word, full
}

}  // namespace
}  // namespace seg::dns
