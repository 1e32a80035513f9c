#include "dns/query_log.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <unistd.h>
#include <vector>

#include "dns/trace_source.h"
#include "util/require.h"

namespace seg::dns {
namespace {

class QueryLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("seg_trace_test_" + std::to_string(::getpid()) + ".tsv"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  // Reads the file back the way every consumer does: a FileTraceSource
  // (format sniffed from the magic) cut into days by collect_days.
  std::vector<DayTrace> read_days() const {
    FileTraceSource source(path_);
    std::vector<DayTrace> days;
    collect_days(source, [&](DayTrace&& day) { days.push_back(std::move(day)); });
    return days;
  }

  std::string path_;
};

TEST_F(QueryLogTest, RoundTrip) {
  DayTrace trace;
  trace.day = 7;
  trace.records.push_back({7, "m1", "www.example.com", {IpV4::parse("1.2.3.4")}});
  trace.records.push_back(
      {7, "m2", "evil.biz", {IpV4::parse("5.6.7.8"), IpV4::parse("5.6.7.9")}});
  write_trace(trace, path_);

  const auto days = read_days();
  ASSERT_EQ(days.size(), 1u);
  EXPECT_EQ(days[0].day, 7);
  ASSERT_EQ(days[0].records.size(), 2u);
  EXPECT_EQ(days[0].records[0], trace.records[0]);
  EXPECT_EQ(days[0].records[1], trace.records[1]);
}

TEST_F(QueryLogTest, EmptyTraceRoundTrips) {
  DayTrace trace;
  trace.day = 3;
  write_trace(trace, path_);
  EXPECT_TRUE(read_days().empty());  // days are derived from records; none present
}

TEST_F(QueryLogTest, RecordWithNoIpsRoundTrips) {
  DayTrace trace;
  trace.day = 1;
  trace.records.push_back({1, "m1", "nxd.example.com", {}});
  write_trace(trace, path_);
  const auto days = read_days();
  ASSERT_EQ(days.size(), 1u);
  ASSERT_EQ(days[0].records.size(), 1u);
  EXPECT_TRUE(days[0].records[0].resolved_ips.empty());
}

TEST_F(QueryLogTest, RejectsWrongFieldCount) {
  {
    std::ofstream out(path_);
    out << "1\tm1\twww.example.com\n";  // missing ips column
  }
  EXPECT_THROW(read_days(), util::ParseError);
}

TEST_F(QueryLogTest, RejectsMixedDays) {
  {
    std::ofstream out(path_);
    out << "1\tm1\ta.com\t1.2.3.4\n2\tm1\tb.com\t1.2.3.4\n";
  }
  // A stream may cross into a later day (the single-day out-of-core
  // prepare rejects that itself; see OutOfCoreTest), but never go back.
  EXPECT_EQ(read_days().size(), 2u);
  {
    std::ofstream out(path_);
    out << "2\tm1\ta.com\t1.2.3.4\n1\tm1\tb.com\t1.2.3.4\n";
  }
  EXPECT_THROW(read_days(), util::ParseError);
}

TEST_F(QueryLogTest, RejectsMalformedIp) {
  {
    std::ofstream out(path_);
    out << "1\tm1\ta.com\tnot-an-ip\n";
  }
  EXPECT_THROW(read_days(), util::ParseError);
}

// The per-record checks of the TSV reader format their message only once
// they fail; this pins the text it reports.
TEST_F(QueryLogTest, PerRecordParseErrorsPinTheirText) {
  const auto write = [this](const char* text) { std::ofstream(path_) << text; };
  const auto error_of = [](const auto& parse) -> std::string {
    try {
      parse();
    } catch (const util::ParseError& error) {
      return error.what();
    }
    return "no ParseError";
  };
  const auto sourced = [this] {
    FileTraceSource source(path_, TraceFormat::kSim);
    QueryRecord record;
    while (source.next(record)) {
    }
  };

  write("1\tm1\ta.com\t1.2.3.4\n1\tm1\twww.example.com\n");
  EXPECT_EQ(error_of(sourced), "sim trace: expected 4 fields at line 2");

  write(" 7x \tm1\ta.com\t1.2.3.4\n");
  EXPECT_EQ(error_of(sourced), "parse_u64: malformed unsigned integer: '7x'");
  write("1\tm1\ta.com\t1.2.3\n");
  EXPECT_EQ(error_of(sourced), "IpV4::parse: expected 4 octets in '1.2.3'");
  write("1\tm1\ta.com\t1.2.3.256\n");
  EXPECT_EQ(error_of(sourced), "IpV4::parse: malformed octet in '1.2.3.256'");
}

}  // namespace
}  // namespace seg::dns
