// Byte-identity tests for the out-of-core prepare (oocore.h): for every
// chunk size and pool size, the streamed trace -> spill -> merge ->
// packed-write path must produce exactly the file the in-memory pipeline
// produces via build + apply_labels + prune + save_graph_compressed.
// Anything weaker would let the mmap-served classification drift from the
// heap-resident reference.
#include "graph/oocore.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>
#include <unistd.h>

#include "dns/domain_name.h"
#include "dns/query_log.h"
#include "dns/trace_source.h"
#include "dns/wire/dnstap.h"
#include "dns/wire/pcap.h"
#include "graph/graph_compressed.h"
#include "graph/labeling.h"
#include "graph/prober_filter.h"
#include "graph/pruning.h"
#include "util/parallel.h"
#include "util/require.h"
#include "util/rng.h"

namespace seg::graph {
namespace {

class OutOfCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto base = std::filesystem::temp_directory_path() /
                      ("seg_oocore_test_" + std::to_string(::getpid()));
    trace_path_ = base.string() + ".tsv";
    binary_trace_path_ = base.string() + ".bin";
    out_path_ = base.string() + ".graphc";
    capture_path_ = base.string() + ".capture";
  }
  void TearDown() override {
    std::filesystem::remove(trace_path_);
    std::filesystem::remove(binary_trace_path_);
    std::filesystem::remove(out_path_);
    std::filesystem::remove(capture_path_);
  }

  dns::PublicSuffixList psl_ = dns::PublicSuffixList::with_default_rules();
  std::string trace_path_;
  std::string binary_trace_path_;
  std::string out_path_;
  std::string capture_path_;

  // A trace with enough structure to exercise every pruning rule: an
  // inactive malware machine (R1 exception), a proxy-degree machine (R2), a
  // low-degree malware domain (R3 exception), singleton domains (R3), and a
  // popular e2LD shared by most machines (R4).
  dns::DayTrace make_trace() {
    dns::DayTrace trace;
    trace.day = 11;
    util::Rng rng(7);
    const auto add = [&](const std::string& machine, const std::string& qname,
                         std::initializer_list<const char*> ips) {
      dns::QueryRecord record;
      record.day = 11;
      record.machine = machine;
      record.qname = qname;
      for (const auto* ip : ips) {
        record.resolved_ips.push_back(dns::IpV4::parse(ip));
      }
      trace.records.push_back(std::move(record));
    };
    for (int m = 0; m < 24; ++m) {
      const std::string machine = "host-" + std::to_string(m);
      // Popular e2LD across nearly all machines -> R4.
      add(machine, "www.popular.com", {"8.8.8.8"});
      // Per-machine spread of ordinary domains, above the inactive cutoff.
      for (int k = 0; k < 8; ++k) {
        const auto j = rng.next_below(40);
        add(machine, "site" + std::to_string(j) + ".net",
            {("10.0." + std::to_string(j) + ".1").c_str()});
      }
      // Duplicate queries and multi-IP answers must collapse identically.
      add(machine, "site1.net", {"10.0.1.1", "10.0.1.2"});
    }
    // Proxy-like machine touching everything (R2).
    for (int j = 0; j < 40; ++j) {
      add("proxy-0", "site" + std::to_string(j) + ".net", {});
      add("proxy-0", "only" + std::to_string(j) + ".org", {});
    }
    // Inactive malware machine kept by the R1 exception.
    add("bot-quiet", "cc.evil.biz", {"185.1.2.3"});
    add("host-0", "cc.evil.biz", {"185.1.2.3"});
    // Low-degree malware domain (R3 exception) and unlabeled singletons.
    add("host-1", "drop.evil2.biz", {"185.9.9.9"});
    add("host-2", "lonely.example.org", {"1.1.1.1"});
    // Mixed-case and trailing-dot qnames exercise normalization.
    add("host-3", "WWW.Popular.COM.", {"8.8.8.8"});
    // Invalid rows must be skipped, not interned.
    add("host-4", "bad..name", {"2.2.2.2"});
    add("", "site1.net", {"3.3.3.3"});
    return trace;
  }

  // A blacklisted C&C name that only probers query.
  static std::string probe_name(int i) { return "probe-cc" + std::to_string(i) + ".evil.biz"; }

  // make_trace() plus probing clients injected as prober_filter_test does:
  // two probers querying 40 blacklisted names and 10 ordinary ones, and an
  // ordinary infection with 3 blacklisted names among 30 queries.
  dns::DayTrace make_prober_trace() {
    auto trace = make_trace();
    const auto add = [&](const std::string& machine, const std::string& qname) {
      dns::QueryRecord record;
      record.day = trace.day;
      record.machine = machine;
      record.qname = qname;
      record.resolved_ips.push_back(dns::IpV4::parse("185.7.7.7"));
      trace.records.push_back(std::move(record));
    };
    for (const std::string prober : {"prober-a", "prober-b"}) {
      for (int i = 0; i < 40; ++i) {
        add(prober, probe_name(i));
      }
      for (int j = 0; j < 10; ++j) {
        add(prober, "site" + std::to_string(j) + ".net");
      }
    }
    for (int j = 0; j < 27; ++j) {
      add("infected", "site" + std::to_string(j) + ".net");
    }
    for (int i = 0; i < 3; ++i) {
      add("infected", probe_name(i));
    }
    return trace;
  }

  // A seeded trace three scan batches long, shaped to reach the scan's
  // cross-batch paths: machines and domains first seen in later batches,
  // mixed-case, trailing-dot, invalid and empty-machine rows around every
  // batch boundary, heavy (domain, IP) repetition, and more distinct pairs
  // than the repeat filter has slots, so pairs collide in it.
  dns::DayTrace make_multi_batch_trace() {
    constexpr std::size_t kBatch = kOutOfCoreBatchRecords;
    const std::size_t total = 2 * kBatch + kBatch / 3;
    dns::DayTrace trace;
    trace.day = 11;
    util::Rng rng(19);
    const auto add = [&](const std::string& machine, const std::string& qname,
                         std::vector<dns::IpV4> ips) {
      dns::QueryRecord record;
      record.day = trace.day;
      record.machine = machine;
      record.qname = qname;
      record.resolved_ips = std::move(ips);
      trace.records.push_back(std::move(record));
    };
    const auto domain_name = [](std::uint64_t j) {
      return "h" + std::to_string(j % 7) + ".d" + std::to_string(j / 7) + ".com";
    };
    // Domains below 300 answer six addresses from one shared pool of 4096
    // (about 10^5 distinct pairs, most seen once); the rest always give the
    // same 1-4, and every third of them one of four shared hosting
    // addresses.
    const auto answers = [&](std::uint64_t j) {
      std::vector<dns::IpV4> ips;
      if (j < 300) {
        for (int k = 0; k < 6; ++k) {
          ips.push_back(dns::IpV4((10u << 24) | static_cast<std::uint32_t>(rng.next_below(4096))));
        }
      } else {
        for (std::uint64_t k = 0; k <= j % 4; ++k) {
          ips.push_back(dns::IpV4((172u << 24) | static_cast<std::uint32_t>(j << 2 | k)));
        }
        if (j % 3 == 0) {
          ips.push_back(dns::IpV4::from_octets(192, 0, 2, static_cast<std::uint8_t>(j % 4)));
        }
      }
      return ips;
    };

    // The first pair is (domain 0, 0.0.0.0): all-zero bits, which must not
    // read as an empty filter slot.
    add("m0", domain_name(400), {dns::IpV4(0)});
    std::uint64_t machine = 0;
    while (trace.records.size() < total) {
      const std::size_t i = trace.records.size();
      const std::size_t batch = i / kBatch;
      const std::size_t offset = i % kBatch;
      if (offset >= kBatch - 2) {
        // Just before a boundary: an invalid name, then a new domain in
        // mixed case with a trailing dot.
        if (offset == kBatch - 2) {
          add("m" + std::to_string(machine), "bad..name" + std::to_string(batch), answers(5));
        } else {
          add("m" + std::to_string(machine), "New" + std::to_string(batch) + ".Boundary.ORG.",
              answers(7));
        }
        continue;
      }
      if (batch > 0 && offset < 2) {
        // Just after it: an empty machine, then a new machine querying the
        // normalized form of that domain.
        if (offset == 0) {
          add("", domain_name(3), answers(3));
        } else {
          add("late-host-" + std::to_string(batch),
              "new" + std::to_string(batch - 1) + ".boundary.org", answers(7));
        }
        continue;
      }
      // Machine-grouped runs, with the odd revisit of an earlier machine.
      if (rng.next_below(24) == 0) {
        ++machine;
      }
      const std::uint64_t m = rng.next_below(50) == 0 ? rng.next_below(machine + 1) : machine;
      // Skewed domain popularity: rare domains tend to be first seen late.
      const std::uint64_t j = rng.next_below(rng.next_below(4000) + 1);
      std::string qname = domain_name(j);
      if (batch == 2 && rng.next_below(10) == 0) {
        qname = "late" + std::to_string(rng.next_below(500)) + ".example.net";
      }
      if (rng.next_below(16) == 0) {
        for (auto& c : qname) {
          c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        }
        qname += ".";
      }
      add("m" + std::to_string(m), qname, answers(j));
    }
    return trace;
  }

  static void expect_same_stats(const PruneStats& a, const PruneStats& b,
                                const std::string& context) {
    EXPECT_EQ(a.machines_before, b.machines_before) << context;
    EXPECT_EQ(a.machines_after, b.machines_after) << context;
    EXPECT_EQ(a.domains_before, b.domains_before) << context;
    EXPECT_EQ(a.domains_after, b.domains_after) << context;
    EXPECT_EQ(a.edges_before, b.edges_before) << context;
    EXPECT_EQ(a.edges_after, b.edges_after) << context;
    EXPECT_EQ(a.machines_removed_r1, b.machines_removed_r1) << context;
    EXPECT_EQ(a.machines_removed_r2, b.machines_removed_r2) << context;
    EXPECT_EQ(a.domains_removed_r3, b.domains_removed_r3) << context;
    EXPECT_EQ(a.domains_removed_r4, b.domains_removed_r4) << context;
    EXPECT_EQ(a.malware_machines_kept_by_exception, b.malware_machines_kept_by_exception)
        << context;
    EXPECT_EQ(a.malware_domains_kept_by_exception, b.malware_domains_kept_by_exception)
        << context;
    EXPECT_EQ(a.theta_d, b.theta_d) << context;
    EXPECT_EQ(a.theta_m, b.theta_m) << context;
  }

  NameSet blacklist() {
    NameSet set;
    for (int i = 0; i < 40; ++i) {
      set.insert(probe_name(i));
    }
    set.insert("cc.evil.biz");
    set.insert("drop.evil2.biz");
    set.insert("h1.d3.com");
    set.insert("h4.d40.com");
    set.insert("new0.boundary.org");
    return set;
  }

  NameSet whitelist() {
    NameSet set;
    set.insert("popular.com");
    set.insert("site1.net");
    set.insert("d0.com");
    set.insert("d5.com");
    return set;
  }

  // The serial reference: GraphBuilder -> apply_labels -> [remove_probers]
  // -> prune -> save_graph_compressed.
  std::string reference_bytes(const dns::DayTrace& trace, const PruningConfig& config,
                              PruneStats* stats = nullptr,
                              const std::optional<ProberFilterConfig>& prober_filter = {},
                              ProberFilterStats* removed = nullptr) {
    GraphBuilder builder(psl_);
    builder.add_trace(trace);
    auto graph = builder.build();
    apply_labels(graph, blacklist(), whitelist());
    if (prober_filter) {
      graph = remove_probers(graph, *prober_filter, removed);
    }
    const auto pruned = prune(graph, config, stats);
    std::ostringstream blob;
    save_graph_compressed(pruned, blob);
    return std::move(blob).str();
  }

  static std::string file_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream blob;
    blob << in.rdbuf();
    return std::move(blob).str();
  }

  // Prepares `trace` (written as a binlog) at pools 1, 2, 3 and 8 and
  // expects the in-memory pipeline's bytes and PruneStats every time, and
  // an OutOfCoreResult that does not depend on the pool.
  void expect_in_memory_bytes_at_every_pool_size(const dns::DayTrace& trace,
                                                 const PruningConfig& pruning,
                                                 std::size_t chunk_records,
                                                 const std::string& name) {
    dns::write_trace_binary(trace, binary_trace_path_);
    const auto skipped = static_cast<std::size_t>(
        std::count_if(trace.records.begin(), trace.records.end(), [](const auto& record) {
          return record.machine.empty() || !dns::DomainName::is_valid(record.qname);
        }));
    PruneStats reference_stats;
    const auto expected = reference_bytes(trace, pruning, &reference_stats);
    struct RestorePool {
      ~RestorePool() { util::set_parallelism(0); }
    } restore;
    std::optional<OutOfCoreResult> first;
    for (const std::size_t pool : {1, 2, 3, 8}) {
      util::set_parallelism(pool);
      OutOfCoreConfig config;
      config.pruning = pruning;
      config.chunk_records = chunk_records;
      const auto result = prepare_graph_out_of_core(binary_trace_path_, psl_, blacklist(),
                                                    whitelist(), out_path_, config);
      const std::string context = name + ", chunk_records " + std::to_string(chunk_records) +
                                  ", pool " + std::to_string(pool);
      // Not EXPECT_EQ: gtest would diff two megabyte-sized blobs by line.
      const auto bytes = file_bytes(out_path_);
      EXPECT_TRUE(bytes == expected) << context << ": " << bytes.size() << " bytes against "
                                     << expected.size() << ", first difference at byte "
                                     << std::distance(bytes.begin(),
                                                      std::mismatch(bytes.begin(), bytes.end(),
                                                                    expected.begin(),
                                                                    expected.end())
                                                          .first);
      EXPECT_EQ(result.records, trace.records.size()) << context;
      EXPECT_EQ(result.skipped_records, skipped) << context;
      expect_same_stats(result.prune_stats, reference_stats, context);
      if (!first) {
        first = result;
        continue;
      }
      // Everything observable is a function of the input, not of the pool.
      EXPECT_EQ(result.spill_segments, first->spill_segments) << context;
      EXPECT_EQ(result.spill_bytes, first->spill_bytes) << context;
      expect_same_stats(result.prune_stats, first->prune_stats, context);
    }
  }

  // A trace for the range-parallel merges: `machines` machines over a pool
  // of `domains` domains (five per e2LD), each querying `per_machine` of
  // them at random, plus `wide` machines that query every domain — one
  // machine's edge pairs then span several spill blocks — and one domain
  // answered by `cdn_ips` distinct addresses, whose IP pairs span several
  // blocks too.
  static dns::DayTrace make_range_trace(std::size_t machines, std::size_t domains,
                                        std::size_t per_machine, std::size_t wide,
                                        std::size_t cdn_ips) {
    dns::DayTrace trace;
    trace.day = 11;
    util::Rng rng(31);
    const auto add = [&](const std::string& machine, const std::string& qname,
                         std::vector<dns::IpV4> ips) {
      dns::QueryRecord record;
      record.day = trace.day;
      record.machine = machine;
      record.qname = qname;
      record.resolved_ips = std::move(ips);
      trace.records.push_back(std::move(record));
    };
    const auto domain = [](std::uint64_t j) {
      return "h" + std::to_string(j % 5) + ".d" + std::to_string(j / 5) + ".net";
    };
    const auto address = [](std::uint64_t j) {
      return dns::IpV4((10u << 24) | static_cast<std::uint32_t>(j));
    };
    for (std::size_t w = 0; w < wide; ++w) {
      for (std::uint64_t j = 0; j < domains; ++j) {
        add("wide-" + std::to_string(w), domain(j), {address(j)});
      }
    }
    for (std::size_t m = 0; m < machines; ++m) {
      for (std::size_t k = 0; k < per_machine; ++k) {
        const auto j = rng.next_below(domains);
        add("m" + std::to_string(m), domain(j), {address(j), address(j + domains)});
      }
      add("m" + std::to_string(m), "cc.evil.biz", {dns::IpV4::parse("185.1.2.3")});
    }
    for (std::uint64_t i = 0; i < cdn_ips; ++i) {
      add("m" + std::to_string(i % std::max<std::size_t>(machines, 1)), "edge.cdn.org",
          {dns::IpV4((172u << 24) | static_cast<std::uint32_t>(i))});
    }
    return trace;
  }

  // The number of threads in this process.
  static std::size_t thread_count() {
    std::size_t threads = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      ++threads;
    }
    return threads;
  }

  // Files a prepare left next to `out_path_`: its temporary output and
  // spills are named after it.
  std::vector<std::string> leftovers() const {
    const std::filesystem::path out(out_path_);
    const std::string prefix = out.filename().string() + ".";
    std::vector<std::string> found;
    for (const auto& entry : std::filesystem::directory_iterator(out.parent_path())) {
      if (entry.path().filename().string().starts_with(prefix)) {
        found.push_back(entry.path().string());
      }
    }
    return found;
  }

  // Prepares a trace that must fail mid-scan, at pools 1 and 3, over a good
  // graph already at `out_path_`: a ParseError, no thread left behind, no
  // temporary or spill file left on disk, and the previous graph intact.
  void expect_scan_failure(const std::string& trace_path, const std::string& name) {
    struct RestorePool {
      ~RestorePool() { util::set_parallelism(0); }
    } restore;
    dns::write_trace(make_trace(), capture_path_);
    prepare_graph_out_of_core(capture_path_, psl_, blacklist(), whitelist(), out_path_, {});
    const auto previous = file_bytes(out_path_);
    ASSERT_FALSE(previous.empty());
    for (const std::size_t pool : {1, 3}) {
      util::set_parallelism(pool);
      util::shared_pool();  // its workers are not the prepare's to stop
      const std::size_t threads = thread_count();
      OutOfCoreConfig config;
      config.chunk_records = 4096;
      EXPECT_THROW(prepare_graph_out_of_core(trace_path, psl_, blacklist(), whitelist(),
                                             out_path_, config),
                   util::ParseError)
          << name << ", pool " << pool;
      EXPECT_EQ(thread_count(), threads) << name << ", pool " << pool;
      EXPECT_EQ(leftovers(), std::vector<std::string>{}) << name << ", pool " << pool;
      EXPECT_TRUE(file_bytes(out_path_) == previous)
          << name << ", pool " << pool << ": the previous graph changed";
    }
  }
};

TEST_F(OutOfCoreTest, MatchesInMemoryPipelineByteForByteAtEveryChunkSize) {
  const auto trace = make_trace();
  dns::write_trace(trace, trace_path_);
  PruningConfig pruning;
  pruning.proxy_degree_percentile = 0.95;
  PruneStats reference_stats;
  const auto expected = reference_bytes(trace, pruning, &reference_stats);

  // Chunk sizes from degenerate (every pair its own spill segment) to
  // larger-than-input (single segment); the output must not move.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                  std::size_t{1} << 20}) {
    OutOfCoreConfig config;
    config.pruning = pruning;
    config.chunk_records = chunk;
    const auto result = prepare_graph_out_of_core(trace_path_, psl_, blacklist(),
                                                  whitelist(), out_path_, config);
    EXPECT_EQ(file_bytes(out_path_), expected) << "chunk_records " << chunk;
    EXPECT_EQ(result.records, trace.records.size());
    EXPECT_EQ(result.skipped_records, 2u);

    // The streamed prune must report the same breakdown as the in-memory
    // prune (same thresholds, same rule attribution).
    EXPECT_EQ(result.prune_stats.theta_d, reference_stats.theta_d);
    EXPECT_EQ(result.prune_stats.theta_m, reference_stats.theta_m);
    EXPECT_EQ(result.prune_stats.machines_removed_r1, reference_stats.machines_removed_r1);
    EXPECT_EQ(result.prune_stats.machines_removed_r2, reference_stats.machines_removed_r2);
    EXPECT_EQ(result.prune_stats.domains_removed_r3, reference_stats.domains_removed_r3);
    EXPECT_EQ(result.prune_stats.domains_removed_r4, reference_stats.domains_removed_r4);
    EXPECT_EQ(result.prune_stats.machines_after, reference_stats.machines_after);
    EXPECT_EQ(result.prune_stats.domains_after, reference_stats.domains_after);
    EXPECT_EQ(result.prune_stats.edges_after, reference_stats.edges_after);
  }
}

TEST_F(OutOfCoreTest, ProberFilterMatchesReferenceAtEveryChunkSize) {
  const auto trace = make_prober_trace();
  dns::write_trace(trace, trace_path_);
  PruningConfig pruning;
  pruning.proxy_degree_percentile = 0.95;
  const ProberFilterConfig filter;
  PruneStats reference_stats;
  ProberFilterStats removed;
  const auto expected = reference_bytes(trace, pruning, &reference_stats, filter, &removed);
  ASSERT_EQ(removed.machines_removed, 2u);
  ASSERT_NE(expected, reference_bytes(trace, pruning));  // the filter changes the graph

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                  std::size_t{1} << 20}) {
    OutOfCoreConfig config;
    config.pruning = pruning;
    config.prober_filter = filter;
    config.chunk_records = chunk;
    const auto result = prepare_graph_out_of_core(trace_path_, psl_, blacklist(), whitelist(),
                                                  out_path_, config);
    const std::string context = "chunk_records " + std::to_string(chunk);
    EXPECT_EQ(file_bytes(out_path_), expected) << context;
    expect_same_stats(result.prune_stats, reference_stats, context);
    EXPECT_EQ(result.edges, reference_stats.edges_before + 2 * 50) << context;
  }
}

TEST_F(OutOfCoreTest, MultiBatchTraceMatchesInMemoryPipelineAtEveryPoolSize) {
  const auto trace = make_multi_batch_trace();
  ASSERT_GT(trace.records.size(), 2 * kOutOfCoreBatchRecords);
  ASSERT_EQ(std::count_if(trace.records.begin(), trace.records.end(),
                          [](const auto& record) {
                            return record.machine.empty() ||
                                   !dns::DomainName::is_valid(record.qname);
                          }),
            4);
  PruningConfig pruning;
  pruning.proxy_degree_percentile = 0.95;
  for (const std::size_t chunk : {std::size_t{7}, std::size_t{4096}, std::size_t{1} << 20}) {
    expect_in_memory_bytes_at_every_pool_size(trace, pruning, chunk, "multi-batch");
  }
}

// The merge passes cut each spill into fixed node-aligned ranges over
// restart blocks of a few thousand pairs; these traces sit on the edges of
// that split.
TEST_F(OutOfCoreTest, RangeMergeEdgeCasesMatchInMemoryPipelineAtEveryPoolSize) {
  PruningConfig pruning;
  pruning.proxy_degree_percentile = 1.0;
  pruning.popular_e2ld_fraction = 0.9;
  // Two machines whose edge pairs, and one domain whose IP pairs, span
  // several blocks of one run.
  const auto wide = make_range_trace(12, 10000, 1500, 2, 9000);
  expect_in_memory_bytes_at_every_pool_size(wide, pruning, std::size_t{1} << 20, "wide nodes");
  // Fewer machines (and pairs) than merge ranges: most ranges are empty.
  const auto few = make_range_trace(5, 60, 20, 0, 3);
  ASSERT_LT(5u, kOutOfCoreBatchRecords);
  expect_in_memory_bytes_at_every_pool_size(few, pruning, std::size_t{1} << 20, "few machines");
  // A chunk smaller than one block: every run is a single short block.
  expect_in_memory_bytes_at_every_pool_size(wide, pruning, 1000, "small chunks");
}

TEST_F(OutOfCoreTest, ScanFailuresOnTheReaderThreadSurfaceAndCleanUp) {
  const auto trace = make_multi_batch_trace();
  ASSERT_GT(trace.records.size(), 2 * kOutOfCoreBatchRecords);

  // A binlog cut mid-record in its third batch: the first two batches
  // resolve before the reader hits the cut.
  dns::write_trace_binary(trace, binary_trace_path_);
  const auto size = std::filesystem::file_size(binary_trace_path_);
  std::filesystem::resize_file(binary_trace_path_, size - size / 20 - 3);
  expect_scan_failure(binary_trace_path_, "truncated binlog");

  // A second day that starts in the second batch: as a TSV trace, and as
  // a second binlog segment.
  const std::size_t split = kOutOfCoreBatchRecords + kOutOfCoreBatchRecords / 2;
  dns::DayTrace first_day;
  first_day.day = trace.day;
  first_day.records.assign(trace.records.begin(),
                           trace.records.begin() + static_cast<std::ptrdiff_t>(split));
  dns::DayTrace second_day;
  second_day.day = trace.day + 1;
  second_day.records.assign(trace.records.begin() + static_cast<std::ptrdiff_t>(split),
                            trace.records.end());
  for (auto& record : second_day.records) {
    record.day = second_day.day;
  }
  dns::DayTrace both = first_day;
  both.records.insert(both.records.end(), second_day.records.begin(), second_day.records.end());
  dns::write_trace(both, trace_path_);
  expect_scan_failure(trace_path_, "two-day TSV");

  dns::write_trace_binary(first_day, binary_trace_path_);
  dns::write_trace_binary(second_day, capture_path_);
  {
    std::ofstream out(binary_trace_path_, std::ios::binary | std::ios::app);
    out << file_bytes(capture_path_);
  }
  expect_scan_failure(binary_trace_path_, "two-segment binlog");
}

TEST_F(OutOfCoreTest, BinaryTraceInputMatchesTextTraceOutput) {
  const auto trace = make_trace();
  dns::write_trace(trace, trace_path_);
  {
    dns::BinaryTraceWriter writer(binary_trace_path_, trace.day, trace.records.size());
    for (const auto& record : trace.records) {
      writer.add(record.machine, record.qname, record.resolved_ips);
    }
    writer.finish();
  }
  OutOfCoreConfig config;
  config.pruning.proxy_degree_percentile = 0.95;
  config.chunk_records = 32;
  prepare_graph_out_of_core(trace_path_, psl_, blacklist(), whitelist(), out_path_, config);
  const auto from_text = file_bytes(out_path_);
  prepare_graph_out_of_core(binary_trace_path_, psl_, blacklist(), whitelist(), out_path_,
                            config);
  EXPECT_EQ(file_bytes(out_path_), from_text);

  // The format is sniffed from the magic bytes, not taken from the name.
  std::filesystem::copy_file(binary_trace_path_, capture_path_);
  prepare_graph_out_of_core(capture_path_, psl_, blacklist(), whitelist(), out_path_, config);
  EXPECT_EQ(file_bytes(out_path_), from_text);
}

TEST_F(OutOfCoreTest, WireCapturesMatchTheirRecordsAsText) {
  // dnstap and pcap carry only valid names with at least one A record.
  auto trace = make_trace();
  std::erase_if(trace.records, [](const dns::QueryRecord& record) {
    return record.machine.empty() || record.resolved_ips.empty() ||
           !dns::DomainName::is_valid(record.qname);
  });
  OutOfCoreConfig config;
  config.pruning.proxy_degree_percentile = 0.95;
  config.chunk_records = 32;
  for (const auto write : {&dns::wire::write_dnstap_trace, &dns::wire::write_pcap_trace}) {
    write(trace, capture_path_);
    // The records as the capture carries them (client addresses for
    // machine names), written as text: the reference output.
    dns::FileTraceSource source(capture_path_);
    dns::DayTrace carried;
    carried.day = trace.day;
    dns::QueryRecord record;
    while (source.next(record)) {
      carried.records.push_back(record);
    }
    ASSERT_EQ(carried.records.size(), trace.records.size());
    dns::write_trace(carried, trace_path_);
    prepare_graph_out_of_core(trace_path_, psl_, blacklist(), whitelist(), out_path_, config);
    const auto from_text = file_bytes(out_path_);

    prepare_graph_out_of_core(capture_path_, psl_, blacklist(), whitelist(), out_path_,
                              config);
    EXPECT_EQ(file_bytes(out_path_), from_text) << dns::format_name(source.format());
  }
}

TEST_F(OutOfCoreTest, RejectsATraceSpanningTwoDays) {
  const auto day_one = make_trace();
  auto day_two = day_one;
  day_two.day = day_one.day + 1;
  for (auto& record : day_two.records) {
    record.day = day_two.day;
  }
  dns::DayTrace both = day_one;
  both.records.insert(both.records.end(), day_two.records.begin(), day_two.records.end());
  dns::write_trace(both, trace_path_);
  try {
    prepare_graph_out_of_core(trace_path_, psl_, blacklist(), whitelist(), out_path_, {});
    ADD_FAILURE() << "a two-day TSV trace was accepted";
  } catch (const util::ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("more than one day"), std::string::npos)
        << error.what();
  }

  // A two-segment binlog (cat day1.bin day2.bin) is rejected too, not cut
  // to its first day.
  dns::write_trace_binary(day_one, binary_trace_path_);
  dns::write_trace_binary(day_two, capture_path_);
  {
    std::ofstream out(binary_trace_path_, std::ios::binary | std::ios::app);
    out << file_bytes(capture_path_);
  }
  EXPECT_THROW(prepare_graph_out_of_core(binary_trace_path_, psl_, blacklist(), whitelist(),
                                         out_path_, {}),
               util::ParseError);
}

TEST_F(OutOfCoreTest, OutputIsMappableAndSpillsAreRemoved) {
  const auto trace = make_trace();
  dns::write_trace(trace, trace_path_);
  OutOfCoreConfig config;
  config.pruning.proxy_degree_percentile = 0.95;
  config.chunk_records = 16;
  const auto result = prepare_graph_out_of_core(trace_path_, psl_, blacklist(), whitelist(),
                                                out_path_, config);
  EXPECT_GT(result.spill_segments, 1u);
  EXPECT_GT(result.spill_bytes, 0u);
  EXPECT_EQ(leftovers(), std::vector<std::string>{});

  const auto mapped = map_graph(out_path_);
  EXPECT_EQ(mapped.view.day(), 11);
  EXPECT_GT(mapped.view.machine_count(), 0u);
  EXPECT_GT(mapped.view.domain_count(), 0u);
  // The R1-excepted bot and its C&C domain must have survived pruning.
  bool found_cc = false;
  for (DomainId d = 0; d < mapped.view.domain_count(); ++d) {
    found_cc = found_cc || mapped.view.domain_name(d) == "cc.evil.biz";
  }
  EXPECT_TRUE(found_cc);
}

TEST_F(OutOfCoreTest, ATraceSourceAndItsFileGiveTheSameGraph) {
  const auto trace = make_prober_trace();
  dns::write_trace_binary(trace, binary_trace_path_);
  OutOfCoreConfig config;
  config.pruning.proxy_degree_percentile = 0.95;
  config.prober_filter = ProberFilterConfig{};
  config.chunk_records = 64;
  prepare_graph_out_of_core(binary_trace_path_, psl_, blacklist(), whitelist(), out_path_,
                            config);
  const auto from_file = file_bytes(out_path_);
  dns::DayTraceSource source(trace);
  prepare_graph_out_of_core(source, psl_, blacklist(), whitelist(), out_path_, config);
  EXPECT_EQ(file_bytes(out_path_), from_file);
  prepare_graph_out_of_core(trace, psl_, blacklist(), whitelist(), out_path_, config);
  EXPECT_EQ(file_bytes(out_path_), from_file);
}

TEST_F(OutOfCoreTest, EmptyTraceProducesEmptyGraph) {
  dns::write_trace(dns::DayTrace{}, trace_path_);
  const auto result =
      prepare_graph_out_of_core(trace_path_, psl_, blacklist(), whitelist(), out_path_, {});
  EXPECT_EQ(result.records, 0u);
  const auto mapped = map_graph(out_path_);
  EXPECT_EQ(mapped.view.machine_count(), 0u);
  EXPECT_EQ(mapped.view.domain_count(), 0u);
  EXPECT_EQ(mapped.view.edge_count(), 0u);
}

}  // namespace
}  // namespace seg::graph
