// On-disk behavior graphs: the packed `segf1 graphc 1` container.
//
// Fixed-width little-endian sections, 8-byte aligned, in a deterministic
// order computed from the header counts (docs/graph-format.md has the
// byte-level layout). The layout is memory-mappable: map_graph() serves
// every GraphView accessor straight off the mapping (zero-copy load), and
// is the only graph reader. The binary header's encoding byte is 1; the
// byte is kept so every packed file written before stays readable.
//
// A saved graph carries every field of MachineDomainGraph, so equal bytes
// mean equal graphs (the tests compare graphs this way). The out-of-core
// preparer (graph/oocore.h) streams the same layout section-by-section
// through detail::PackedGraphcWriter, and its output is byte-identical to
// save_graph_compressed() of the equivalent heap-built graph.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>

#include "graph/graph.h"
#include "graph/graph_view.h"
#include "util/mmap_file.h"

namespace seg::graph {

/// Serializes a graph (any backing) as a packed `segf1 graphc 1` stream.
void save_graph_compressed(const GraphView& graph, std::ostream& out);

/// A packed graphc file mapped into memory, with a GraphView serving the
/// sections in place. The view borrows the mapping: keep the MappedGraph
/// alive as long as the view (or anything constructed over it) is in use.
struct MappedGraph {
  util::MmapFile file;
  GraphView view;
};

/// A graph served from a mapping it owns: a move-only GraphView, so every
/// function taking a `const GraphView&` takes it as it is. What
/// core::Segugio::prepare_graph returns; the mapping keeps its file alive
/// after the file is unlinked.
class PreparedGraph : public GraphView {
 public:
  PreparedGraph() = default;
  explicit PreparedGraph(MappedGraph&& mapped) noexcept
      : GraphView(mapped.view), file_(std::move(mapped.file)) {}
  PreparedGraph(PreparedGraph&& other) noexcept
      : GraphView(std::exchange<GraphView>(other, GraphView{})), file_(std::move(other.file_)) {}
  PreparedGraph& operator=(PreparedGraph&& other) noexcept {
    GraphView::operator=(std::exchange<GraphView>(other, GraphView{}));
    file_ = std::move(other.file_);
    return *this;
  }

  const GraphView& view() const { return *this; }

 private:
  util::MmapFile file_;
};

/// Memory-maps a packed graphc file for zero-copy reads. Throws
/// util::ParseError when the file is not a packed graphc container, its
/// section sizes disagree with the file, or its structure is inconsistent
/// (offset tables, CSR target ids, e2LD ids, label bytes).
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
/// (name tables, then raw bytes) with pad8() after
/// every section. Used by save_graph_compressed and by the out-of-core
/// writer, so both produce byte-identical files from identical logical
/// content.
class PackedGraphcWriter {
 public:
  PackedGraphcWriter(std::ostream& out, const GraphcCounts& counts);

  /// Writes one name-table section (`count` + 1 u64 offsets, then the
  /// concatenated names `name_of(0)`, ..., `name_of(count - 1)`) and pads it.
  void name_table(std::size_t count,
                  const std::function<std::string_view(std::size_t)>& name_of);

  void bytes(const void* data, std::size_t size);
  /// Skips `size` bytes that the caller fills later with positioned writes
  /// to the same file, and returns their file offset.
  std::uint64_t reserve_section(std::uint64_t size);
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
