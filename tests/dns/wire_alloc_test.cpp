// Allocation contract of the record decoders: once the reader's reused
// buffers and the caller's reused QueryRecord have grown to fit the
// stream, decoding a record touches the heap no more. Every bounds check
// still runs on every read; only its error text moved onto the failure
// path (dns/wire/bytes.h).
//
// The binary replaces the global operator new/delete with counting
// versions, so it is an executable of its own, and it is not built under
// SEG_SANITIZE: the sanitizers install their own allocator.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>

#include "dns/query_log.h"
#include "dns/trace_source.h"
#include "dns/wire/dnstap.h"
#include "dns/wire/pcap.h"
#include "util/rng.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) {
    return block;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }

namespace seg::dns {
namespace {

constexpr std::size_t kRecords = 20000;
// Records decoded before counting starts: long enough for the reused
// buffers to reach the trace's usual name lengths and address counts.
constexpr std::uint64_t kWarmup = 100;
// Allocations allowed over the remaining records: the odd buffer growth
// when a name longer than any before it arrives. A decoder that formats
// its error text on every successful read makes about 15 (binlog) to 160
// (dnstap, pcap) per record on this trace.
constexpr std::uint64_t kGrowthBudget = 8;

// Dotted-quad machines, so the wire formats round-trip every record, and
// names of mixed lengths, so the buffers have something to grow into.
DayTrace make_trace() {
  DayTrace trace;
  trace.day = 20;
  util::Rng rng(29);
  for (std::size_t i = 0; i < kRecords; ++i) {
    QueryRecord record;
    record.day = trace.day;
    record.machine = IpV4::from_octets(172, 16, static_cast<std::uint8_t>(rng.next_below(16)),
                                       static_cast<std::uint8_t>(rng.next_below(250)))
                         .to_string();
    record.qname = std::string(1 + rng.next_below(24), static_cast<char>('a' + i % 26)) + "." +
                   std::to_string(i) + ".example.com";
    const auto ips = 1 + rng.next_below(4);
    for (std::uint64_t k = 0; k < ips; ++k) {
      record.resolved_ips.push_back(IpV4(static_cast<std::uint32_t>(rng.next())));
    }
    trace.records.push_back(std::move(record));
  }
  return trace;
}

struct Decoded {
  std::uint64_t records = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t allocations = 0;  // after the warm-up
};

// Reads `path` back into one reused record, checking each against the
// trace it was written from. Nothing inside the loop may allocate except
// the decoder itself.
Decoded decode(const std::string& path, const DayTrace& trace) {
  FileTraceSource source(path);
  QueryRecord record;
  Decoded out;
  std::uint64_t at_warmup = g_allocations.load(std::memory_order_relaxed);
  while (source.next(record)) {
    if (out.records >= trace.records.size() || !(record == trace.records[out.records])) {
      ++out.mismatches;
    }
    if (++out.records == kWarmup) {
      at_warmup = g_allocations.load(std::memory_order_relaxed);
    }
  }
  out.allocations = g_allocations.load(std::memory_order_relaxed) - at_warmup;
  return out;
}

class WireAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("seg_wire_alloc_" + std::to_string(::getpid())))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  void expect_allocation_free(const std::string& format) {
    const auto result = decode(path_, trace_);
    EXPECT_EQ(result.records, kRecords) << format;
    EXPECT_EQ(result.mismatches, 0u) << format;
    EXPECT_LE(result.allocations, kGrowthBudget)
        << format << ": " << result.allocations << " allocations over "
        << kRecords - kWarmup << " records";
  }

  static const DayTrace trace_;
  std::string path_;
};

const DayTrace WireAllocTest::trace_ = make_trace();

TEST_F(WireAllocTest, CounterSeesHeapAllocations) {
  const auto before = g_allocations.load();
  const std::string* text = new std::string(100, 'x');
  EXPECT_GT(g_allocations.load(), before);  // the object and its buffer
  delete text;
}

TEST_F(WireAllocTest, DnstapDecodeIntoAReusedRecordIsAllocationFree) {
  wire::write_dnstap_trace(trace_, path_);
  expect_allocation_free("dnstap");
}

TEST_F(WireAllocTest, PcapDecodeIntoAReusedRecordIsAllocationFree) {
  wire::write_pcap_trace(trace_, path_);
  expect_allocation_free("pcap");
}

TEST_F(WireAllocTest, BinlogDecodeIntoAReusedRecordIsAllocationFree) {
  write_trace_binary(trace_, path_);
  expect_allocation_free("binlog");
}

}  // namespace
}  // namespace seg::dns
