// FileTraceSource's memory contract (trace_source.h): a mapped capture
// keeps a bounded window of pages resident behind the cursor, however
// large the file, so streaming a day's binlog into one reused record does
// not grow the process by the file's size.
#include "dns/trace_source.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "dns/query_log.h"
#include "util/obs/process.h"

namespace seg::dns {
namespace {

TEST(TraceSourceTest, MappedBinlogKeepsABoundedResidentWindow) {
  const auto path = (std::filesystem::temp_directory_path() /
                     ("seg_trace_source_test_" + std::to_string(::getpid()) + ".bin"))
                        .string();
  // 81 bytes per record: two length-prefixed strings (11 + 61 bytes), an
  // IP count and one IP. 640 K records make a binlog of about 50.6 MiB.
  constexpr std::uint64_t kRecords = 640 * 1024;
  const std::string padding(50, 'x');
  {
    BinaryTraceWriter writer(path, /*day=*/4, kRecords);
    std::string machine;
    std::string qname;
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      machine = "m" + std::to_string(1000000000 + i % 100000);
      qname = padding + std::to_string(1000000 + i) + ".net";
      const IpV4 ip(static_cast<std::uint32_t>(i));
      writer.add(machine, qname, {&ip, 1});
    }
    writer.finish();
  }
  const auto file_bytes = std::filesystem::file_size(path);
  ASSERT_GE(file_bytes, std::uintmax_t{48} << 20);

  std::uint64_t records = 0;
  std::uint64_t peak_kb = 0;
  const std::uint64_t start_kb = obs::sample_process().rss_now_kb;
  {
    FileTraceSource source(path);
    QueryRecord record;
    while (source.next(record)) {
      if (++records % 4096 == 0) {
        peak_kb = std::max(peak_kb, obs::sample_process().rss_now_kb);
      }
    }
  }
  std::filesystem::remove(path);
  EXPECT_EQ(records, kRecords);
  if (start_kb == 0) {
    GTEST_SKIP() << "resident set size is not exposed on this platform";
  }
  const std::uint64_t growth_kb = peak_kb > start_kb ? peak_kb - start_kb : 0;
  EXPECT_LT(growth_kb, std::uint64_t{16} << 10)
      << "streaming a " << (file_bytes >> 20) << " MiB binlog grew the resident set by "
      << (growth_kb >> 10) << " MiB";
}

}  // namespace
}  // namespace seg::dns
