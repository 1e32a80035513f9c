#include "dns/activity_index.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace seg::dns {
namespace {

std::string save_bytes(const DomainActivityIndex& index) {
  std::ostringstream blob;
  index.save(blob);
  return std::move(blob).str();
}

TEST(ActivityIndexTest, UnseenNameHasZeroActivity) {
  DomainActivityIndex index;
  EXPECT_EQ(index.active_days("x.com", 0, 100), 0);
  EXPECT_EQ(index.consecutive_days_ending("x.com", 10), 0);
  EXPECT_EQ(index.first_seen("x.com"), std::nullopt);
}

TEST(ActivityIndexTest, ActiveDaysCountsWithinWindow) {
  DomainActivityIndex index;
  for (Day d : {1, 3, 5, 7, 9}) {
    index.mark_active("a.com", d);
  }
  EXPECT_EQ(index.active_days("a.com", 1, 9), 5);
  EXPECT_EQ(index.active_days("a.com", 2, 6), 2);  // days 3, 5
  EXPECT_EQ(index.active_days("a.com", 10, 20), 0);
}

TEST(ActivityIndexTest, MarkActiveIsIdempotentPerDay) {
  DomainActivityIndex index;
  index.mark_active("a.com", 4);
  index.mark_active("a.com", 4);
  EXPECT_EQ(index.active_days("a.com", 4, 4), 1);
}

TEST(ActivityIndexTest, ConsecutiveDaysEnding) {
  DomainActivityIndex index;
  for (Day d : {2, 3, 4, 6, 7}) {
    index.mark_active("a.com", d);
  }
  EXPECT_EQ(index.consecutive_days_ending("a.com", 4), 3);  // 2,3,4
  EXPECT_EQ(index.consecutive_days_ending("a.com", 7), 2);  // 6,7
  EXPECT_EQ(index.consecutive_days_ending("a.com", 5), 0);  // not active on 5
  EXPECT_EQ(index.consecutive_days_ending("a.com", 2), 1);
}

TEST(ActivityIndexTest, OutOfOrderMarking) {
  DomainActivityIndex index;
  index.mark_active("a.com", 9);
  index.mark_active("a.com", 7);
  index.mark_active("a.com", 8);
  EXPECT_EQ(index.consecutive_days_ending("a.com", 9), 3);
  EXPECT_EQ(index.first_seen("a.com"), 7);
}

TEST(ActivityIndexTest, NamesAreIndependent) {
  DomainActivityIndex index;
  index.mark_active("a.com", 1);
  index.mark_active("b.com", 2);
  EXPECT_EQ(index.active_days("a.com", 0, 10), 1);
  EXPECT_EQ(index.active_days("b.com", 0, 10), 1);
  EXPECT_EQ(index.tracked_names(), 2u);
}

TEST(ActivityIndexTest, FirstSeen) {
  DomainActivityIndex index;
  index.mark_active("a.com", 42);
  index.mark_active("a.com", 12);
  EXPECT_EQ(index.first_seen("a.com"), 12);
}

TEST(ActivityIndexTest, AbsorbingTheSameIndexTwiceChangesNothing) {
  DomainActivityIndex source;
  for (Day d : {1, 2, 3, 7}) {
    source.mark_active("a.com", d);
  }
  source.mark_active("b.org", 5);

  DomainActivityIndex empty;
  empty.absorb(source);
  EXPECT_EQ(save_bytes(empty), save_bytes(source));
  empty.absorb(source);
  EXPECT_EQ(save_bytes(empty), save_bytes(source));

  DomainActivityIndex seeded;  // overlaps `source` on a.com
  seeded.mark_active("a.com", 9);
  seeded.mark_active("c.net", 2);
  seeded.absorb(source);
  const auto once = save_bytes(seeded);
  seeded.absorb(source);
  EXPECT_EQ(save_bytes(seeded), once);
  seeded.absorb(seeded);
  EXPECT_EQ(save_bytes(seeded), once);
}

TEST(ActivityIndexTest, AbsorbIntoANonEmptyIndexUnionsTheDays) {
  DomainActivityIndex index;
  for (Day d : {2, 4}) {
    index.mark_active("a.com", d);
  }
  index.mark_active("c.net", 7);
  DomainActivityIndex other;
  for (Day d : {1, 2, 5}) {
    other.mark_active("a.com", d);
  }
  other.mark_active("b.org", 3);

  index.absorb(other);
  DomainActivityIndex expected;
  for (Day d : {1, 2, 4, 5}) {
    expected.mark_active("a.com", d);
  }
  expected.mark_active("b.org", 3);
  expected.mark_active("c.net", 7);
  EXPECT_EQ(save_bytes(index), save_bytes(expected));
  EXPECT_EQ(index.tracked_names(), 3u);
  EXPECT_EQ(index.consecutive_days_ending("a.com", 2), 2);  // 1, 2
  EXPECT_EQ(index.first_seen("a.com"), 1);
}

}  // namespace
}  // namespace seg::dns
