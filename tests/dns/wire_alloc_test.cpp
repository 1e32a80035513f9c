// Allocation contract of the record decoders: once the reader's reused
// buffers and the caller's reused QueryRecord have grown to fit the
// stream, decoding a record touches the heap no more. Every bounds check
// still runs on every read; only its error text moved onto the failure
// path (dns/wire/bytes.h). The per-record name checks every graph builder
// runs (DomainName::is_valid, is_normalized) allocate nothing either, nor
// does appending each decoded record to a recycled RecordArena, the
// streaming pipeline's producer loop (core::Pipeline::ingest_stream).
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
#include <optional>
#include <string>

#include "dns/domain_name.h"
#include "dns/query_log.h"
#include "dns/record_arena.h"
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

// Rows per arena in the arena cases, the pipeline's default batch.
constexpr std::size_t kArenaRows = 1024;

struct Decoded {
  std::uint64_t records = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t allocations = 0;  // after the warm-up
};

// Capacities of an arena's buffers. The arena takes anonymous mappings,
// which the operator new counter cannot see, so a buffer that grows is
// counted as one allocation when its capacity changes.
struct ArenaCapacity {
  std::size_t text = 0;
  std::size_t ips = 0;
  std::size_t rows = 0;

  explicit ArenaCapacity(const RecordArena& arena)
      : text(arena.text.capacity()), ips(arena.ips.capacity()), rows(arena.rows.capacity()) {}
  bool operator==(const ArenaCapacity&) const = default;
};

// Reads `path` back into one reused record, checking each against the
// trace it was written from. With an arena, each record is appended to it
// and the arena is recycled (cleared) every kArenaRows records, as the
// pipeline's producer does; the warm-up then lasts one full arena. Nothing
// inside the loop may allocate except the decoder and the arena growing.
Decoded decode(const std::string& path, const DayTrace& trace, RecordArena* arena = nullptr) {
  FileTraceSource source(path);
  QueryRecord record;
  Decoded out;
  const std::uint64_t warmup = arena != nullptr ? kArenaRows : kWarmup;
  std::uint64_t at_warmup = g_allocations.load(std::memory_order_relaxed);
  std::uint64_t arena_growth = 0;
  std::optional<ArenaCapacity> capacity;
  while (source.next(record)) {
    if (out.records >= trace.records.size() || !(record == trace.records[out.records])) {
      ++out.mismatches;
    }
    if (arena != nullptr) {
      arena->add(record);
      if (arena->size() == kArenaRows) {
        arena->clear();
      }
      if (capacity && !(ArenaCapacity(*arena) == *capacity)) {
        ++arena_growth;
      }
      if (capacity) {
        *capacity = ArenaCapacity(*arena);
      }
    }
    if (++out.records == warmup) {
      at_warmup = g_allocations.load(std::memory_order_relaxed);
      if (arena != nullptr) {
        capacity.emplace(*arena);
      }
    }
  }
  out.allocations = g_allocations.load(std::memory_order_relaxed) - at_warmup + arena_growth;
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

  // Decoding into a recycled arena stays within the same budget.
  void expect_arena_fill_allocation_free(const std::string& format) {
    RecordArena arena;
    const auto result = decode(path_, trace_, &arena);
    EXPECT_EQ(result.records, kRecords) << format;
    EXPECT_EQ(result.mismatches, 0u) << format;
    EXPECT_LE(result.allocations, kGrowthBudget)
        << format << " into an arena: " << result.allocations << " allocations over "
        << kRecords - kArenaRows << " records";
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

TEST_F(WireAllocTest, NameChecksAreAllocationFree) {
  // All longer than the 15 bytes a std::string holds without the heap.
  const std::string names[] = {
      "Mixed-Case.Long-Label.Example.COM.", "www.some-long-domain-name.example.org",
      "bad..name.example.com",              "trailing.dot.example.net.",
      "UPPER.CASE.EXAMPLE.ORG",
  };
  const auto before = g_allocations.load();
  std::size_t valid = 0;
  std::size_t normalized = 0;
  for (const auto& name : names) {
    valid += DomainName::is_valid(name) ? 1 : 0;
    normalized += DomainName::is_normalized(name) ? 1 : 0;
  }
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_EQ(valid, 4u);
  EXPECT_EQ(normalized, 2u);
}

TEST_F(WireAllocTest, DnstapDecodeIntoAReusedRecordIsAllocationFree) {
  wire::write_dnstap_trace(trace_, path_);
  expect_allocation_free("dnstap");
  expect_arena_fill_allocation_free("dnstap");
}

TEST_F(WireAllocTest, PcapDecodeIntoAReusedRecordIsAllocationFree) {
  wire::write_pcap_trace(trace_, path_);
  expect_allocation_free("pcap");
  expect_arena_fill_allocation_free("pcap");
}

TEST_F(WireAllocTest, BinlogDecodeIntoAReusedRecordIsAllocationFree) {
  write_trace_binary(trace_, path_);
  expect_allocation_free("binlog");
  expect_arena_fill_allocation_free("binlog");
}

TEST_F(WireAllocTest, ArenaGrowthIsCounted) {
  // The arena cases count buffer growth by capacity: a fresh arena that
  // fills past its first buffers must register.
  RecordArena arena;
  const ArenaCapacity empty(arena);
  arena.add(trace_.records.front());
  EXPECT_FALSE(ArenaCapacity(arena) == empty);
}

}  // namespace
}  // namespace seg::dns
