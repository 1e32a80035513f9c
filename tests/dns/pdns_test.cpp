#include "dns/pdns.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace seg::dns {
namespace {

std::string save_bytes(const PassiveDnsDb& db) {
  std::ostringstream blob;
  db.save(blob);
  return std::move(blob).str();
}

TEST(PassiveDnsDbTest, EmptyDbHasNoAssociations) {
  PassiveDnsDb db;
  const auto ip = IpV4::parse("1.2.3.4");
  EXPECT_FALSE(db.ip_malware_associated(ip, 0, 100));
  EXPECT_FALSE(db.prefix_malware_associated(ip, 0, 100));
  EXPECT_FALSE(db.ip_unknown_associated(ip, 0, 100));
  EXPECT_FALSE(db.prefix_unknown_associated(ip, 0, 100));
  EXPECT_EQ(db.observation_count(), 0u);
  EXPECT_EQ(db.distinct_ip_count(), 0u);
}

TEST(PassiveDnsDbTest, MalwareAssociationWithinWindow) {
  PassiveDnsDb db;
  const auto ip = IpV4::parse("5.6.7.8");
  db.add_observation(50, ip, PdnsAssociation::kMalware);
  EXPECT_TRUE(db.ip_malware_associated(ip, 0, 100));
  EXPECT_TRUE(db.ip_malware_associated(ip, 50, 50));
  EXPECT_FALSE(db.ip_malware_associated(ip, 0, 49));
  EXPECT_FALSE(db.ip_malware_associated(ip, 51, 100));
}

TEST(PassiveDnsDbTest, PrefixAssociationCoversSiblingIps) {
  PassiveDnsDb db;
  db.add_observation(10, IpV4::parse("9.9.9.1"), PdnsAssociation::kMalware);
  // Different IP, same /24.
  EXPECT_TRUE(db.prefix_malware_associated(IpV4::parse("9.9.9.200"), 0, 20));
  EXPECT_FALSE(db.ip_malware_associated(IpV4::parse("9.9.9.200"), 0, 20));
  // Different /24.
  EXPECT_FALSE(db.prefix_malware_associated(IpV4::parse("9.9.10.1"), 0, 20));
}

TEST(PassiveDnsDbTest, UnknownAndMalwareTrackedSeparately) {
  PassiveDnsDb db;
  const auto ip = IpV4::parse("7.7.7.7");
  db.add_observation(5, ip, PdnsAssociation::kUnknown);
  EXPECT_TRUE(db.ip_unknown_associated(ip, 0, 10));
  EXPECT_FALSE(db.ip_malware_associated(ip, 0, 10));
}

TEST(PassiveDnsDbTest, BenignObservationsAreCountedButNotIndexed) {
  PassiveDnsDb db;
  const auto ip = IpV4::parse("8.8.8.8");
  db.add_observation(5, ip, PdnsAssociation::kBenign);
  EXPECT_EQ(db.observation_count(), 1u);
  EXPECT_FALSE(db.ip_malware_associated(ip, 0, 10));
  EXPECT_FALSE(db.ip_unknown_associated(ip, 0, 10));
}

TEST(PassiveDnsDbTest, AddResolutionRecordsAllIps) {
  PassiveDnsDb db;
  const std::vector<IpV4> ips = {IpV4::parse("1.1.1.1"), IpV4::parse("2.2.2.2")};
  db.add_resolution(3, ips, PdnsAssociation::kMalware);
  EXPECT_TRUE(db.ip_malware_associated(ips[0], 0, 5));
  EXPECT_TRUE(db.ip_malware_associated(ips[1], 0, 5));
  EXPECT_EQ(db.observation_count(), 2u);
}

TEST(PassiveDnsDbTest, OutOfOrderInsertsMaintainSortedQueries) {
  PassiveDnsDb db;
  const auto ip = IpV4::parse("4.4.4.4");
  db.add_observation(30, ip, PdnsAssociation::kMalware);
  db.add_observation(10, ip, PdnsAssociation::kMalware);
  db.add_observation(20, ip, PdnsAssociation::kMalware);
  db.add_observation(20, ip, PdnsAssociation::kMalware);  // duplicate
  EXPECT_TRUE(db.ip_malware_associated(ip, 10, 10));
  EXPECT_TRUE(db.ip_malware_associated(ip, 15, 25));
  EXPECT_TRUE(db.ip_malware_associated(ip, 25, 35));
  EXPECT_FALSE(db.ip_malware_associated(ip, 11, 19));
  EXPECT_FALSE(db.ip_malware_associated(ip, 31, 99));
}

TEST(PassiveDnsDbTest, DistinctIpCountUnionsBothIndexes) {
  PassiveDnsDb db;
  db.add_observation(1, IpV4::parse("1.0.0.1"), PdnsAssociation::kMalware);
  db.add_observation(1, IpV4::parse("1.0.0.2"), PdnsAssociation::kUnknown);
  db.add_observation(1, IpV4::parse("1.0.0.1"), PdnsAssociation::kUnknown);  // both
  EXPECT_EQ(db.distinct_ip_count(), 2u);
}

TEST(PassiveDnsDbTest, AbsorbingTheSameDbTwiceChangesNothing) {
  PassiveDnsDb source;
  source.add_observation(-10, IpV4::parse("1.2.3.4"), PdnsAssociation::kMalware);
  source.add_observation(-5, IpV4::parse("1.2.3.9"), PdnsAssociation::kUnknown);
  source.add_observation(3, IpV4::parse("9.8.7.6"), PdnsAssociation::kMalware);
  source.add_observation(4, IpV4::parse("9.8.7.6"), PdnsAssociation::kBenign);

  PassiveDnsDb empty;
  empty.absorb(source);
  EXPECT_EQ(save_bytes(empty), save_bytes(source));
  empty.absorb(source);
  EXPECT_EQ(save_bytes(empty), save_bytes(source));

  PassiveDnsDb seeded;  // overlaps `source` on 1.2.3.4 and its /24
  seeded.add_observation(1, IpV4::parse("1.2.3.4"), PdnsAssociation::kMalware);
  seeded.add_observation(1, IpV4::parse("5.5.5.5"), PdnsAssociation::kUnknown);
  seeded.absorb(source);
  const auto once = save_bytes(seeded);
  seeded.absorb(source);
  EXPECT_EQ(save_bytes(seeded), once);
  seeded.absorb(seeded);
  EXPECT_EQ(save_bytes(seeded), once);
}

TEST(PassiveDnsDbTest, AbsorbUnionsDaysAndKeepsTheLargerObservationCount) {
  const auto ip = IpV4::parse("1.2.3.4");
  PassiveDnsDb db;
  db.add_observation(10, ip, PdnsAssociation::kMalware);
  PassiveDnsDb other;
  other.add_observation(20, ip, PdnsAssociation::kMalware);
  other.add_observation(5, IpV4::parse("1.2.3.77"), PdnsAssociation::kUnknown);
  other.add_observation(6, IpV4::parse("8.8.8.8"), PdnsAssociation::kBenign);

  db.absorb(other);
  PassiveDnsDb expected;
  expected.add_observation(10, ip, PdnsAssociation::kMalware);
  expected.add_observation(20, ip, PdnsAssociation::kMalware);
  expected.add_observation(5, IpV4::parse("1.2.3.77"), PdnsAssociation::kUnknown);
  EXPECT_EQ(db.observation_count(), 3u);  // max(1, 3), not the sum
  EXPECT_TRUE(db.ip_malware_associated(ip, 10, 10));
  EXPECT_TRUE(db.ip_malware_associated(ip, 20, 20));
  EXPECT_TRUE(db.prefix_unknown_associated(ip, 5, 5));
  EXPECT_EQ(save_bytes(db), save_bytes(expected));

  PassiveDnsDb bigger;  // absorbing a smaller count leaves the larger one
  for (Day d = 0; d < 5; ++d) {
    bigger.add_observation(d, IpV4::parse("4.4.4.4"), PdnsAssociation::kBenign);
  }
  bigger.absorb(db);
  EXPECT_EQ(bigger.observation_count(), 5u);
}

}  // namespace
}  // namespace seg::dns
