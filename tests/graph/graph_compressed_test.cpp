// Zero-copy tests for the packed `segf1 graphc 1` container
// (graph_compressed.h): the mmap-backed GraphView must serve exactly what
// the heap graph serves and re-save to the same bytes, and truncated or
// crafted files must surface as util::ParseError.
#include "graph/graph_compressed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>

#include "graph/graph_view.h"
#include "graph/labeling.h"
#include "util/require.h"

namespace seg::graph {
namespace {

class GraphCompressedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("seg_graphc_test_" + std::to_string(::getpid()) + ".graphc"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  dns::PublicSuffixList psl_ = dns::PublicSuffixList::with_default_rules();
  std::string path_;

  MachineDomainGraph make_graph() {
    dns::DayTrace trace;
    trace.day = 42;
    const auto add = [&trace](const char* machine, const char* qname, const char* ip) {
      trace.records.push_back({42, machine, qname, {dns::IpV4::parse(ip)}});
    };
    add("m1", "cc.evil.biz", "185.1.2.3");
    add("m2", "cc.evil.biz", "185.1.2.3");
    add("m1", "www.good.com", "23.4.5.6");
    add("m2", "www.good.com", "23.4.5.7");
    add("m3", "sub.blog.narod.ru", "24.0.0.1");
    add("m1", "sub.blog.narod.ru", "24.0.0.1");
    add("m3", "cdn.other.net", "9.9.9.9");
    GraphBuilder builder(psl_);
    builder.add_trace(trace);
    auto graph = builder.build();
    NameSet blacklist;
    blacklist.insert("cc.evil.biz");
    NameSet whitelist;
    whitelist.insert("good.com");
    apply_labels(graph, blacklist, whitelist);
    return graph;
  }

  void write_file(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
};

TEST_F(GraphCompressedTest, EmptyGraphRoundTripsThroughMapGraph) {
  // Built-but-empty, not default-constructed: graphc serializes graphs
  // produced by a builder (whose offset tables always hold n+1 entries).
  const auto empty = GraphBuilder(psl_).build();
  std::ostringstream blob;
  save_graph_compressed(empty, blob);
  write_file(blob.str());
  const auto mapped = map_graph(path_);
  EXPECT_EQ(mapped.view.machine_count(), 0u);
  EXPECT_EQ(mapped.view.domain_count(), 0u);
  EXPECT_EQ(mapped.view.edge_count(), 0u);
  std::ostringstream resaved;
  save_graph_compressed(mapped.view, resaved);
  EXPECT_EQ(resaved.str(), blob.str());
}

TEST_F(GraphCompressedTest, MappedViewServesExactlyTheHeapGraph) {
  const auto graph = make_graph();
  {
    std::ofstream out(path_, std::ios::binary);
    save_graph_compressed(graph, out);
  }
  const auto mapped = map_graph(path_);
  const auto& view = mapped.view;

  EXPECT_EQ(view.day(), graph.day());
  ASSERT_EQ(view.machine_count(), graph.machine_count());
  ASSERT_EQ(view.domain_count(), graph.domain_count());
  EXPECT_EQ(view.edge_count(), graph.edge_count());
  EXPECT_EQ(view.e2ld_count(), graph.e2ld_count());

  for (MachineId m = 0; m < graph.machine_count(); ++m) {
    EXPECT_EQ(view.machine_name(m), graph.machine_name(m));
    EXPECT_EQ(view.machine_label(m), graph.machine_label(m));
    const auto a = view.domains_of(m);
    const auto b = graph.domains_of(m);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
  for (DomainId d = 0; d < graph.domain_count(); ++d) {
    EXPECT_EQ(view.domain_name(d), graph.domain_name(d));
    EXPECT_EQ(view.domain_label(d), graph.domain_label(d));
    EXPECT_EQ(view.e2ld_name(view.domain_e2ld(d)), graph.e2ld_name(graph.domain_e2ld(d)));
    const auto a = view.machines_of(d);
    const auto b = graph.machines_of(d);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    const auto va = view.resolved_ips(d);
    const auto vb = graph.resolved_ips(d);
    ASSERT_EQ(va.size(), vb.size());
    EXPECT_TRUE(std::equal(va.begin(), va.end(), vb.begin()));
  }
}

TEST_F(GraphCompressedTest, MappedLoadIsByteStableThroughResave) {
  // mmap view -> packed save must reproduce the original file bytes: the
  // view serves the serializer directly, so no information is rewritten.
  const auto graph = make_graph();
  std::ostringstream first;
  save_graph_compressed(graph, first);
  write_file(first.str());
  const auto mapped = map_graph(path_);
  std::ostringstream second;
  save_graph_compressed(mapped.view, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST_F(GraphCompressedTest, TruncatedStreamsAreRejected) {
  const auto graph = make_graph();
  std::ostringstream blob;
  save_graph_compressed(graph, blob);
  const auto full = blob.str();
  // Chop at several depths: inside the text header, the binary header,
  // and the section payloads.
  for (const std::size_t keep :
       {std::size_t{4}, std::size_t{40}, std::size_t{90}, full.size() - 1}) {
    write_file(full.substr(0, keep));
    EXPECT_THROW(map_graph(path_), util::ParseError) << "keep " << keep;
  }
}

TEST_F(GraphCompressedTest, TruncatedMappedFileIsRejected) {
  const auto graph = make_graph();
  std::ostringstream blob;
  save_graph_compressed(graph, blob);
  const auto full = blob.str();
  write_file(full.substr(0, full.size() - 8));
  EXPECT_THROW(map_graph(path_), util::ParseError);
  // Bytes past the last section are rejected too.
  write_file(full + "x");
  EXPECT_THROW(map_graph(path_), util::ParseError);
}

TEST_F(GraphCompressedTest, MappedFileRejectsAnUnknownEncodingByte) {
  const auto graph = make_graph();
  std::ostringstream blob;
  save_graph_compressed(graph, blob);
  auto crafted = blob.str();
  constexpr std::size_t kEncodingAt = 15;  // right after "segf1 graphc 1\n"
  ASSERT_EQ(crafted[kEncodingAt], 1);
  for (const char encoding : {0, 2, 0x7f}) {
    crafted[kEncodingAt] = encoding;
    write_file(crafted);
    try {
      map_graph(path_);
      ADD_FAILURE() << "map_graph accepted encoding byte " << int{encoding};
    } catch (const util::ParseError& error) {
      EXPECT_NE(std::string(error.what()).find("unknown encoding"), std::string::npos)
          << error.what();
    }
  }
}

// A packed file's binary header: "segf1 graphc 1\n", encoding byte, three
// reserved bytes, the day (i32), then eight u64 counts in the order
// machines, domains, e2LDs, edges, IPs, and the three name-blob sizes.
// Sections follow at 8-byte boundaries.
constexpr std::size_t kCountsAt = 15 + 4 + 4;
constexpr std::size_t kFirstSectionAt = 88;

std::uint64_t header_count(const std::string& bytes, std::size_t field) {
  std::uint64_t value = 0;
  std::memcpy(&value, bytes.data() + kCountsAt + 8 * field, sizeof(value));
  return value;
}

void set_header_count(std::string& bytes, std::size_t field, std::uint64_t value) {
  std::memcpy(bytes.data() + kCountsAt + 8 * field, &value, sizeof(value));
}

// Where the CSR sections start, recomputed from the header the way
// map_graph walks the file.
struct CsrSections {
  std::size_t machine_offsets = 0;  // u64 per machine, plus one
  std::size_t machine_targets = 0;  // DomainId per edge
  std::size_t domain_offsets = 0;   // u64 per domain, plus one
  std::size_t domain_targets = 0;   // MachineId per edge
};

CsrSections csr_sections(const std::string& bytes) {
  const auto machines = header_count(bytes, 0);
  const auto domains = header_count(bytes, 1);
  const auto e2lds = header_count(bytes, 2);
  const auto edges = header_count(bytes, 3);
  std::size_t at = kFirstSectionAt;
  const auto section = [&at](std::uint64_t size) {
    const std::size_t begin = at;
    at = (at + size + 7) / 8 * 8;
    return begin;
  };
  section((machines + 1) * 8 + header_count(bytes, 5));  // machine names
  section((domains + 1) * 8 + header_count(bytes, 6));   // domain names
  section((e2lds + 1) * 8 + header_count(bytes, 7));     // e2LD names
  section(domains * sizeof(E2ldId));                     // domain -> e2LD
  CsrSections out;
  out.machine_offsets = section((machines + 1) * 8);
  out.machine_targets = section(edges * sizeof(DomainId));
  out.domain_offsets = section((domains + 1) * 8);
  out.domain_targets = section(edges * sizeof(MachineId));
  return out;
}

TEST_F(GraphCompressedTest, MappedFileRejectsOutOfRangeCsrTargets) {
  const auto graph = make_graph();
  std::ostringstream blob;
  save_graph_compressed(graph, blob);
  const auto original = blob.str();
  const auto sections = csr_sections(original);

  // A machine's edge pointing one past the last domain.
  auto bad_domain = original;
  const auto domain_id = static_cast<DomainId>(graph.domain_count());
  std::memcpy(bad_domain.data() + sections.machine_targets, &domain_id, sizeof(domain_id));
  // A domain's edge pointing far past the last machine.
  auto bad_machine = original;
  const MachineId machine_id = 0x7fffffff;
  std::memcpy(bad_machine.data() + sections.domain_targets, &machine_id, sizeof(machine_id));

  for (const auto* crafted : {&bad_domain, &bad_machine}) {
    {
      std::ofstream out(path_, std::ios::binary);
      out << *crafted;
    }
    EXPECT_THROW(map_graph(path_), util::ParseError);
  }
  // The untouched file still maps: the offsets above hit the target sections.
  {
    std::ofstream out(path_, std::ios::binary);
    out << original;
  }
  EXPECT_EQ(map_graph(path_).view.edge_count(), graph.edge_count());
}

TEST_F(GraphCompressedTest, MappedFileRejectsWrappingSectionCounts) {
  const auto graph = make_graph();
  std::ostringstream blob;
  save_graph_compressed(graph, blob);
  const auto original = blob.str();
  const auto sections = csr_sections(original);
  const std::uint64_t machines = graph.machine_count();
  const std::uint64_t domains = graph.domain_count();
  const std::uint64_t edges = graph.edge_count();

  // edges * 4 wraps to the true target-section size, and both offset
  // tables are patched to end at the claimed count: every other check
  // passes, so only the overflow check stops a view of 2^62 + E edges over
  // a file holding E.
  auto wrapped_edges = original;
  const std::uint64_t claimed = edges + (std::uint64_t{1} << 62);
  set_header_count(wrapped_edges, 3, claimed);
  std::memcpy(wrapped_edges.data() + sections.machine_offsets + 8 * machines, &claimed, 8);
  std::memcpy(wrapped_edges.data() + sections.domain_offsets + 8 * domains, &claimed, 8);
  // (machines + 1) * 8 wraps to the true name-table size.
  auto wrapped_table = original;
  set_header_count(wrapped_table, 0, machines + (std::uint64_t{1} << 61));
  // machines + 1 itself wraps to 0.
  auto wrapped_entries = original;
  set_header_count(wrapped_entries, 0, ~std::uint64_t{0});

  for (const auto* crafted : {&wrapped_edges, &wrapped_table, &wrapped_entries}) {
    {
      std::ofstream out(path_, std::ios::binary);
      out << *crafted;
    }
    try {
      map_graph(path_);
      ADD_FAILURE() << "map_graph accepted a wrapping count";
    } catch (const util::ParseError& error) {
      EXPECT_NE(std::string(error.what()).find("section size overflows"), std::string::npos)
          << error.what();
    }
  }
}

}  // namespace
}  // namespace seg::graph
