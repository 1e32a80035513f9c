#include "dns/query_log.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <unistd.h>

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

  std::string path_;
};

TEST_F(QueryLogTest, RoundTrip) {
  DayTrace trace;
  trace.day = 7;
  trace.records.push_back({7, "m1", "www.example.com", {IpV4::parse("1.2.3.4")}});
  trace.records.push_back(
      {7, "m2", "evil.biz", {IpV4::parse("5.6.7.8"), IpV4::parse("5.6.7.9")}});
  write_trace(trace, path_);

  const auto loaded = read_trace(path_);
  EXPECT_EQ(loaded.day, 7);
  ASSERT_EQ(loaded.records.size(), 2u);
  EXPECT_EQ(loaded.records[0], trace.records[0]);
  EXPECT_EQ(loaded.records[1], trace.records[1]);
}

TEST_F(QueryLogTest, EmptyTraceRoundTrips) {
  DayTrace trace;
  trace.day = 3;
  write_trace(trace, path_);
  const auto loaded = read_trace(path_);
  EXPECT_TRUE(loaded.records.empty());
  EXPECT_EQ(loaded.day, 0);  // day is derived from records; none present
}

TEST_F(QueryLogTest, RecordWithNoIpsRoundTrips) {
  DayTrace trace;
  trace.day = 1;
  trace.records.push_back({1, "m1", "nxd.example.com", {}});
  write_trace(trace, path_);
  const auto loaded = read_trace(path_);
  ASSERT_EQ(loaded.records.size(), 1u);
  EXPECT_TRUE(loaded.records[0].resolved_ips.empty());
}

TEST_F(QueryLogTest, RejectsWrongFieldCount) {
  {
    std::ofstream out(path_);
    out << "1\tm1\twww.example.com\n";  // missing ips column
  }
  EXPECT_THROW(read_trace(path_), util::ParseError);
}

TEST_F(QueryLogTest, RejectsMixedDays) {
  {
    std::ofstream out(path_);
    out << "1\tm1\ta.com\t1.2.3.4\n2\tm1\tb.com\t1.2.3.4\n";
  }
  EXPECT_THROW(read_trace(path_), util::ParseError);
}

TEST_F(QueryLogTest, RejectsMalformedIp) {
  {
    std::ofstream out(path_);
    out << "1\tm1\ta.com\tnot-an-ip\n";
  }
  EXPECT_THROW(read_trace(path_), util::ParseError);
}

// The per-record checks of the TSV readers format their message only once
// they fail; this pins the text each reader reports.
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
  const auto batch = [this] { read_trace(path_); };
  const auto streamed = [this] { for_each_record(path_, [](const QueryRecord&) {}); };
  const auto sourced = [this] {
    FileTraceSource source(path_, TraceFormat::kSim);
    QueryRecord record;
    while (source.next(record)) {
    }
  };

  write("1\tm1\ta.com\t1.2.3.4\n1\tm1\twww.example.com\n");
  EXPECT_EQ(error_of(batch), "read_trace: expected 4 fields at line 2");
  EXPECT_EQ(error_of(streamed), "for_each_record: expected 4 fields at line 2");
  EXPECT_EQ(error_of(sourced), "sim trace: expected 4 fields at line 2");

  write("1\tm1\ta.com\t1.2.3.4\n2\tm1\tb.com\t1.2.3.4\n");
  EXPECT_EQ(error_of(batch), "read_trace: mixed days in one trace file at line 2");
  EXPECT_EQ(error_of(streamed), "for_each_record: mixed days in one trace file at line 2");

  write(" 7x \tm1\ta.com\t1.2.3.4\n");
  EXPECT_EQ(error_of(batch), "parse_u64: malformed unsigned integer: '7x'");
  write("1\tm1\ta.com\t1.2.3\n");
  EXPECT_EQ(error_of(batch), "IpV4::parse: expected 4 octets in '1.2.3'");
  write("1\tm1\ta.com\t1.2.3.256\n");
  EXPECT_EQ(error_of(batch), "IpV4::parse: malformed octet in '1.2.3.256'");
}

}  // namespace
}  // namespace seg::dns
