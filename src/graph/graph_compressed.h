// Compact on-disk behavior graphs: the `segf1 graphc 1` container.
//
// One container, two encodings (docs/graph-format.md has the byte-level
// layout):
//
//   packed (1)  — fixed-width little-endian sections, 8-byte aligned, in
//                 a deterministic order computed from the header counts.
//                 Memory-mappable: map_graph() serves every GraphView
//                 accessor straight off the mapping (zero-copy load).
//   compact (2) — split degree/edge/IP-set/label streams, with each
//                 strictly-ascending adjacency run delta + varint coded
//                 (util/varint.h). Roughly 4-6x smaller than the legacy
//                 SEGGRAPH1 serialization (graph_io.h), which spends 8
//                 widened bytes per stored id.
//
// Both encodings carry exactly the information of save_graph/load_graph:
// round-trips are lossless, and the loaded graph is bit-identical to the
// source (tests/graph/graph_compressed_test.cpp asserts serialized
// equality). The out-of-core preparer (graph/oocore.h) streams the packed
// encoding section-by-section through detail::PackedGraphcWriter, and its
// output is byte-identical to save_graph_compressed() of the equivalent
// heap-built graph.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "graph/graph.h"
#include "graph/graph_view.h"
#include "util/mmap_file.h"

namespace seg::graph {

enum class GraphcEncoding : std::uint8_t { kPacked = 1, kCompact = 2 };

/// Serializes a graph (any backing) as a `segf1 graphc 1` stream.
void save_graph_compressed(const GraphView& graph, std::ostream& out,
                           GraphcEncoding encoding = GraphcEncoding::kCompact);

/// Loads either encoding back into a heap-resident graph. Throws
/// util::ParseError on malformed or truncated input.
MachineDomainGraph load_graph_compressed(std::istream& in);

/// A packed graphc file mapped into memory, with a GraphView serving the
/// sections in place. The view borrows the mapping: keep the MappedGraph
/// alive as long as the view (or anything constructed over it) is in use.
struct MappedGraph {
  util::MmapFile file;
  GraphView view;
};

/// Memory-maps a packed graphc file for zero-copy reads. Throws
/// util::ParseError when the file is not a packed graphc container or its
/// node-level structure is inconsistent (offset tables, label bytes).
/// SEG_NUMA_POLICY placement is applied to the mapping (util/mmap_file.h).
MappedGraph map_graph(const std::string& path);

namespace detail {

/// Everything the fixed-size binary header records; section offsets of the
/// packed encoding are a pure function of these counts.
struct GraphcCounts {
  std::int32_t day = 0;
  std::uint64_t machines = 0;
  std::uint64_t domains = 0;
  std::uint64_t e2lds = 0;
  std::uint64_t edges = 0;
  std::uint64_t ips = 0;
  std::uint64_t machine_name_bytes = 0;
  std::uint64_t domain_name_bytes = 0;
  std::uint64_t e2ld_name_bytes = 0;
};

/// Streams the packed encoding: writes the container + binary header on
/// construction, then the caller appends each section in layout order
/// (raw bytes / u32 / u64 helpers) with pad8() after every section. Used
/// by save_graph_compressed and by the out-of-core writer, so both
/// produce byte-identical files from identical logical content.
class PackedGraphcWriter {
 public:
  PackedGraphcWriter(std::ostream& out, const GraphcCounts& counts);

  void bytes(const void* data, std::size_t size);
  void u64(std::uint64_t value) { bytes(&value, sizeof(value)); }
  void u32(std::uint32_t value) { bytes(&value, sizeof(value)); }
  void u8(std::uint8_t value) { bytes(&value, sizeof(value)); }
  /// Pads the file position to the next multiple of 8.
  void pad8();
  /// Validates the stream state; call once after the last section.
  void finish();

 private:
  std::ostream* out_;
  std::uint64_t written_ = 0;  ///< bytes since file start
};

}  // namespace detail

}  // namespace seg::graph
