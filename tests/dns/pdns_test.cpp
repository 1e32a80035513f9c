#include "dns/pdns.h"

#include <gtest/gtest.h>

#include <vector>

namespace seg::dns {
namespace {

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

}  // namespace
}  // namespace seg::dns
