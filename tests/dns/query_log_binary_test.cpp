#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <unistd.h>
#include <vector>

#include "dns/query_log.h"
#include "dns/trace_source.h"
#include "util/require.h"
#include "util/rng.h"

namespace seg::dns {
namespace {

class BinaryTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("seg_bintrace_" + std::to_string(::getpid()) + ".bin"))
                .string();
    text_path_ = path_ + ".tsv";
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(text_path_);
  }

  static DayTrace sample_trace(std::size_t records) {
    DayTrace trace;
    trace.day = -12;  // negative days must survive the round trip
    util::Rng rng(77);
    for (std::size_t i = 0; i < records; ++i) {
      QueryRecord record;
      record.day = trace.day;
      record.machine = "machine-" + std::to_string(rng.next_below(50));
      record.qname = "host" + std::to_string(i) + ".example" +
                     std::to_string(rng.next_below(9)) + ".com";
      const auto ips = rng.next_below(4);
      for (std::uint64_t k = 0; k < ips; ++k) {
        record.resolved_ips.push_back(IpV4(static_cast<std::uint32_t>(rng.next())));
      }
      trace.records.push_back(std::move(record));
    }
    return trace;
  }

  // Reads the binlog back through the streaming reader, cut into days.
  std::vector<DayTrace> read_days(TraceFormat format = TraceFormat::kBinlog) const {
    FileTraceSource source(path_, format);
    std::vector<DayTrace> days;
    collect_days(source, [&](DayTrace&& day) { days.push_back(std::move(day)); });
    return days;
  }

  std::string path_;
  std::string text_path_;
};

TEST_F(BinaryTraceTest, RoundTrip) {
  const auto trace = sample_trace(500);
  write_trace_binary(trace, path_);
  EXPECT_EQ(detect_format(path_), TraceFormat::kBinlog);
  const auto days = read_days();
  ASSERT_EQ(days.size(), 1u);
  EXPECT_EQ(days[0].day, trace.day);
  ASSERT_EQ(days[0].records.size(), trace.records.size());
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    EXPECT_EQ(days[0].records[i], trace.records[i]) << i;
  }
}

TEST_F(BinaryTraceTest, EmptyTraceRoundTrips) {
  DayTrace trace;
  trace.day = 3;
  write_trace_binary(trace, path_);
  EXPECT_EQ(detect_format(path_), TraceFormat::kBinlog);
  EXPECT_TRUE(read_days().empty());
}

TEST_F(BinaryTraceTest, SmallerThanText) {
  const auto trace = sample_trace(2000);
  write_trace_binary(trace, path_);
  write_trace(trace, text_path_);
  const auto binary_size = std::filesystem::file_size(path_);
  const auto text_size = std::filesystem::file_size(text_path_);
  EXPECT_LT(binary_size, text_size);
}

TEST_F(BinaryTraceTest, RejectsBadMagic) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "NOTATRACEFILE";
  }
  EXPECT_THROW(read_days(TraceFormat::kBinlog), util::ParseError);
}

TEST_F(BinaryTraceTest, RejectsTruncation) {
  const auto trace = sample_trace(100);
  write_trace_binary(trace, path_);
  const auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full / 2);
  EXPECT_THROW(read_days(), util::ParseError);
}

TEST_F(BinaryTraceTest, MissingFileThrows) {
  EXPECT_THROW(FileTraceSource("/nonexistent/trace.bin"), util::ParseError);
  EXPECT_THROW(FileTraceSource("/nonexistent/trace.bin", TraceFormat::kBinlog),
               util::ParseError);
}

}  // namespace
}  // namespace seg::dns
