// Round-trip tests for the text serialization of the history substrates.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "dns/activity_index.h"
#include "dns/pdns.h"
#include "util/require.h"

namespace seg::dns {
namespace {

std::string save_bytes(const DomainActivityIndex& index) {
  std::ostringstream blob;
  index.save(blob);
  return std::move(blob).str();
}

std::string save_bytes(const PassiveDnsDb& db) {
  std::ostringstream blob;
  db.save(blob);
  return std::move(blob).str();
}

/// Loads `text` with `Store::load` and expects a ParseError whose message
/// holds `where` (the section and the line) and `what`.
template <typename Store>
void expect_parse_error(const std::string& text, const std::string& where,
                        const std::string& what) {
  std::istringstream in(text);
  try {
    (void)Store::load(in);
    ADD_FAILURE() << "loaded without error:\n" << text;
  } catch (const util::ParseError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find(where), std::string::npos) << message;
    EXPECT_NE(message.find(what), std::string::npos) << message;
  }
}

constexpr const char* kPdnsHead = "segf1 pdns 2\npdns 1\nip_malware 1\n";
constexpr const char* kPdnsTail = "ip_unknown 0\nprefix_malware 0\nprefix_unknown 0\n";

TEST(ActivityIndexIoTest, RoundTrip) {
  DomainActivityIndex index;
  index.mark_active("a.com", -30);
  index.mark_active("a.com", -29);
  index.mark_active("a.com", 5);
  index.mark_active("b.org", 0);
  std::stringstream blob;
  index.save(blob);
  const auto loaded = DomainActivityIndex::load(blob);
  EXPECT_EQ(loaded.tracked_names(), 2u);
  EXPECT_EQ(loaded.active_days("a.com", -30, 5), 3);
  EXPECT_EQ(loaded.consecutive_days_ending("a.com", -29), 2);
  EXPECT_EQ(loaded.first_seen("b.org"), 0);
  EXPECT_EQ(loaded.first_seen("a.com"), -30);
}

TEST(ActivityIndexIoTest, EmptyIndexRoundTrips) {
  DomainActivityIndex index;
  std::stringstream blob;
  index.save(blob);
  const auto loaded = DomainActivityIndex::load(blob);
  EXPECT_EQ(loaded.tracked_names(), 0u);
}

TEST(ActivityIndexIoTest, LoadRejectsGarbage) {
  std::stringstream blob("wrong header");
  EXPECT_THROW(DomainActivityIndex::load(blob), util::ParseError);
  std::stringstream truncated("segf1 activity 2\nactivity 3\na.com 1\n");
  EXPECT_THROW(DomainActivityIndex::load(truncated), util::ParseError);
}

TEST(PdnsIoTest, RoundTrip) {
  PassiveDnsDb db;
  db.add_observation(-10, IpV4::parse("1.2.3.4"), PdnsAssociation::kMalware);
  db.add_observation(-5, IpV4::parse("1.2.3.4"), PdnsAssociation::kUnknown);
  db.add_observation(3, IpV4::parse("9.8.7.6"), PdnsAssociation::kMalware);
  std::stringstream blob;
  db.save(blob);
  const auto loaded = PassiveDnsDb::load(blob);
  EXPECT_EQ(loaded.observation_count(), db.observation_count());
  EXPECT_TRUE(loaded.ip_malware_associated(IpV4::parse("1.2.3.4"), -20, 0));
  EXPECT_FALSE(loaded.ip_malware_associated(IpV4::parse("1.2.3.4"), -9, 0));
  EXPECT_TRUE(loaded.ip_unknown_associated(IpV4::parse("1.2.3.4"), -5, -5));
  EXPECT_TRUE(loaded.prefix_malware_associated(IpV4::parse("9.8.7.250"), 0, 5));
  EXPECT_FALSE(loaded.ip_malware_associated(IpV4::parse("5.5.5.5"), -100, 100));
}

TEST(PdnsIoTest, EmptyDbRoundTrips) {
  PassiveDnsDb db;
  std::stringstream blob;
  db.save(blob);
  const auto loaded = PassiveDnsDb::load(blob);
  EXPECT_EQ(loaded.observation_count(), 0u);
  EXPECT_EQ(loaded.distinct_ip_count(), 0u);
}

TEST(PdnsIoTest, LoadRejectsGarbage) {
  std::stringstream blob("nope");
  EXPECT_THROW(PassiveDnsDb::load(blob), util::ParseError);
  std::stringstream missing_section("segf1 pdns 2\npdns 0\nip_malware 0\n");
  EXPECT_THROW(PassiveDnsDb::load(missing_section), util::ParseError);
}

// Every store starts with its `segf1` header: today's bytes minus the
// header line (the headerless form of earlier versions) are a ParseError.
TEST(ActivityIndexIoTest, HeaderlessStreamIsRejected) {
  DomainActivityIndex index;
  index.mark_active("a.com", 3);
  index.mark_active("a.com", 4);
  std::stringstream blob;
  index.save(blob);
  auto bytes = blob.str();
  std::istringstream headerless(bytes.substr(bytes.find('\n') + 1));
  EXPECT_THROW(DomainActivityIndex::load(headerless), util::ParseError);
}

TEST(PdnsIoTest, HeaderlessStreamIsRejected) {
  PassiveDnsDb db;
  db.add_observation(-3, IpV4::parse("1.2.3.4"), PdnsAssociation::kMalware);
  std::stringstream blob;
  db.save(blob);
  auto bytes = blob.str();
  std::istringstream headerless(bytes.substr(bytes.find('\n') + 1));
  EXPECT_THROW(PassiveDnsDb::load(headerless), util::ParseError);
}

// Hostile store bytes: each is a ParseError naming the section and the line.
TEST(ActivityIndexIoTest, DayThatIsNotAnIntegerIsAParseError) {
  expect_parse_error<DomainActivityIndex>("segf1 activity 2\nactivity 1\na.com 1 2 x 3\n",
                                          "activity section, line 3", "day 'x'");
}

TEST(ActivityIndexIoTest, DayOutOfRangeIsAParseError) {
  expect_parse_error<DomainActivityIndex>("segf1 activity 2\nactivity 1\na.com 1 99999999999 3\n",
                                          "activity section, line 3", "day '99999999999'");
}

TEST(ActivityIndexIoTest, NameWithNoDayIsAParseError) {
  expect_parse_error<DomainActivityIndex>("segf1 activity 2\nactivity 2\na.com 1\nb.com\n",
                                          "activity section, line 4", "no day");
}

TEST(ActivityIndexIoTest, ContentAfterTheLastCountedLineIsAParseError) {
  expect_parse_error<DomainActivityIndex>("segf1 activity 2\nactivity 1\na.com 1\nb.com 2\n",
                                          "activity section, line 4",
                                          "content after the last counted line");
}

TEST(PdnsIoTest, KeyThatIsNotADecimalUint32IsAParseError) {
  expect_parse_error<PassiveDnsDb>(std::string(kPdnsHead) + "abc 3\n" + kPdnsTail,
                                   "ip_malware section, line 4", "key 'abc'");
  expect_parse_error<PassiveDnsDb>(std::string(kPdnsHead) + "4294967296 3\n" + kPdnsTail,
                                   "ip_malware section, line 4", "key '4294967296'");
}

TEST(PdnsIoTest, NegativeKeyIsAParseError) {
  expect_parse_error<PassiveDnsDb>(std::string(kPdnsHead) + "-5 3\n" + kPdnsTail,
                                   "ip_malware section, line 4", "key '-5'");
}

TEST(PdnsIoTest, DayThatIsNotAnIntegerIsAParseError) {
  expect_parse_error<PassiveDnsDb>(std::string(kPdnsHead) + "9 1 zz 2\n" + kPdnsTail,
                                   "ip_malware section, line 4", "day 'zz'");
}

TEST(PdnsIoTest, KeyWithNoDayIsAParseError) {
  expect_parse_error<PassiveDnsDb>(std::string(kPdnsHead) + "9\n" + kPdnsTail,
                                   "ip_malware section, line 4", "no day");
}

TEST(PdnsIoTest, ContentAfterTheLastSectionIsAParseError) {
  expect_parse_error<PassiveDnsDb>(std::string(kPdnsHead) + "9 1\n" + kPdnsTail + "7 1\n",
                                   "prefix_unknown section, line 8",
                                   "content after the last counted line");
}

// Unsorted and repeated days stay valid: the loaded sets hold each day once
// and save them ascending.
TEST(ActivityIndexIoTest, UnsortedAndRepeatedDaysLoad) {
  std::istringstream in("segf1 activity 2\nactivity 1\na.com 5 -3 5 4 -3\n");
  const auto loaded = DomainActivityIndex::load(in);
  EXPECT_EQ(loaded.active_days("a.com", -10, 10), 3);
  EXPECT_EQ(loaded.consecutive_days_ending("a.com", 5), 2);
  EXPECT_EQ(save_bytes(loaded), "segf1 activity 2\nactivity 1\na.com -3 4 5\n");
}

TEST(PdnsIoTest, UnsortedAndRepeatedDaysLoad) {
  std::istringstream in(std::string(kPdnsHead) + "9 7 2 7 -1\n" + kPdnsTail);
  const auto loaded = PassiveDnsDb::load(in);
  EXPECT_TRUE(loaded.ip_malware_associated(IpV4(9), -1, -1));
  EXPECT_FALSE(loaded.ip_malware_associated(IpV4(9), 3, 6));
  EXPECT_EQ(save_bytes(loaded), std::string(kPdnsHead) + "9 -1 2 7\n" + kPdnsTail);
}

}  // namespace
}  // namespace seg::dns
