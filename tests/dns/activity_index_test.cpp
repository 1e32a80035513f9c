#include "dns/activity_index.h"

#include <gtest/gtest.h>

namespace seg::dns {
namespace {

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

}  // namespace
}  // namespace seg::dns
