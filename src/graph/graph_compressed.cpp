#include "graph/graph_compressed.h"

#include <cstring>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/require.h"
#include "util/serialize.h"
#include "util/varint.h"

namespace seg::graph {

namespace {

// The mapped loader serves fixed-width sections in place, so the packed
// encoding inherits the host's layout for these types.
static_assert(sizeof(dns::IpV4) == 4 && std::is_trivially_copyable_v<dns::IpV4>,
              "packed graphc stores resolved IPs as raw 4-byte values");
static_assert(sizeof(Label) == 1, "packed graphc stores labels as raw bytes");

constexpr std::string_view kGraphcMagic = "graphc";
constexpr int kGraphcVersion = 1;
// util::write_format_header(out, "graphc", 1) produces exactly this line.
constexpr std::string_view kTextHeader = "segf1 graphc 1\n";
// Text line + binary header (encoding u8, 3 reserved, day i32, 8 u64
// counts), before padding to the first 8-aligned section boundary.
constexpr std::size_t kHeaderBytes = kTextHeader.size() + 4 + 4 + 8 * 8;

std::size_t pad8_gap(std::size_t position) { return (8 - position % 8) % 8; }

detail::GraphcCounts counts_of(const GraphView& graph) {
  detail::GraphcCounts counts;
  counts.day = graph.day();
  counts.machines = graph.machine_count();
  counts.domains = graph.domain_count();
  counts.e2lds = graph.e2ld_count();
  counts.edges = graph.edge_count();
  counts.ips = graph.resolved_ip_values().size();
  for (std::size_t i = 0; i < graph.machine_names().size(); ++i) {
    counts.machine_name_bytes += graph.machine_names()[i].size();
  }
  for (std::size_t i = 0; i < graph.domain_names().size(); ++i) {
    counts.domain_name_bytes += graph.domain_names()[i].size();
  }
  for (std::size_t i = 0; i < graph.e2ld_names().size(); ++i) {
    counts.e2ld_name_bytes += graph.e2ld_names()[i].size();
  }
  return counts;
}

void write_binary_header(std::ostream& out, GraphcEncoding encoding,
                         const detail::GraphcCounts& counts) {
  util::write_format_header(out, kGraphcMagic, kGraphcVersion);
  const std::uint8_t enc = static_cast<std::uint8_t>(encoding);
  const std::uint8_t reserved[3] = {0, 0, 0};
  out.write(reinterpret_cast<const char*>(&enc), 1);
  out.write(reinterpret_cast<const char*>(reserved), 3);
  out.write(reinterpret_cast<const char*>(&counts.day), 4);
  const std::uint64_t fields[8] = {counts.machines,           counts.domains,
                                   counts.e2lds,              counts.edges,
                                   counts.ips,                counts.machine_name_bytes,
                                   counts.domain_name_bytes,  counts.e2ld_name_bytes};
  out.write(reinterpret_cast<const char*>(fields), sizeof(fields));
}

// --- packed encoding --------------------------------------------------------

void write_name_table(detail::PackedGraphcWriter& writer, const NameTableView& names) {
  std::vector<std::uint64_t> offsets(names.size() + 1, 0);
  for (std::size_t i = 0; i < names.size(); ++i) {
    offsets[i + 1] = offsets[i] + names[i].size();
  }
  writer.bytes(offsets.data(), offsets.size() * sizeof(std::uint64_t));
  std::string blob;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto name = names[i];
    blob.append(name.data(), name.size());
    if (blob.size() >= (1u << 20)) {
      writer.bytes(blob.data(), blob.size());
      blob.clear();
    }
  }
  writer.bytes(blob.data(), blob.size());
  writer.pad8();
}

void save_packed(const GraphView& graph, std::ostream& out) {
  detail::PackedGraphcWriter writer(out, counts_of(graph));
  write_name_table(writer, graph.machine_names());
  write_name_table(writer, graph.domain_names());
  write_name_table(writer, graph.e2ld_names());

  const auto section = [&writer](const auto& span, std::size_t element_size) {
    writer.bytes(span.data(), span.size() * element_size);
    writer.pad8();
  };
  section(graph.domain_e2ld_ids(), sizeof(E2ldId));
  section(graph.machine_offsets(), sizeof(std::uint64_t));
  section(graph.machine_targets(), sizeof(DomainId));
  section(graph.domain_offsets(), sizeof(std::uint64_t));
  section(graph.domain_targets(), sizeof(MachineId));
  section(graph.ip_offsets(), sizeof(std::uint64_t));
  section(graph.resolved_ip_values(), sizeof(dns::IpV4));
  section(graph.machine_labels(), sizeof(Label));
  section(graph.domain_labels(), sizeof(Label));
  writer.finish();
}

// --- compact encoding -------------------------------------------------------

class CompactStream {
 public:
  explicit CompactStream(std::ostream& out) : out_(&out) {}

  std::string& buffer() { return buffer_; }

  void maybe_flush() {
    if (buffer_.size() >= (1u << 20)) {
      flush();
    }
  }

  void flush() {
    out_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }

 private:
  std::ostream* out_;
  std::string buffer_;
};

void save_compact(const GraphView& graph, std::ostream& out) {
  write_binary_header(out, GraphcEncoding::kCompact, counts_of(graph));
  CompactStream stream(out);
  auto& buf = stream.buffer();

  const auto names = [&](const NameTableView& table) {
    for (std::size_t i = 0; i < table.size(); ++i) {
      const auto name = table[i];
      util::append_varint(buf, name.size());
      buf.append(name.data(), name.size());
      stream.maybe_flush();
    }
  };
  names(graph.machine_names());
  names(graph.domain_names());
  names(graph.e2ld_names());

  for (const auto e : graph.domain_e2ld_ids()) {
    util::append_varint(buf, e);
    stream.maybe_flush();
  }

  // Degree stream then the concatenated delta-coded adjacency runs, per
  // direction. Degrees first keeps every run's length decodable without
  // interleaving headers into the run bytes.
  const auto degrees_and_runs = [&](std::size_t count, const auto& row_of) {
    for (std::size_t i = 0; i < count; ++i) {
      util::append_varint(buf, row_of(i).size());
      stream.maybe_flush();
    }
    for (std::size_t i = 0; i < count; ++i) {
      util::append_ascending_run(buf, row_of(i));
      stream.maybe_flush();
    }
  };
  degrees_and_runs(graph.machine_count(),
                   [&](std::size_t m) { return graph.domains_of(static_cast<MachineId>(m)); });
  degrees_and_runs(graph.domain_count(),
                   [&](std::size_t d) { return graph.machines_of(static_cast<DomainId>(d)); });

  for (DomainId d = 0; d < graph.domain_count(); ++d) {
    util::append_varint(buf, graph.resolved_ips(d).size());
    stream.maybe_flush();
  }
  for (DomainId d = 0; d < graph.domain_count(); ++d) {
    const auto ips = graph.resolved_ips(d);
    for (std::size_t i = 0; i < ips.size(); ++i) {
      if (i == 0) {
        util::append_varint(buf, ips[0].value());
      } else {
        util::append_varint(buf, ips[i].value() - ips[i - 1].value() - 1);
      }
    }
    stream.maybe_flush();
  }

  for (const auto label : graph.machine_labels()) {
    buf.push_back(static_cast<char>(label));
  }
  for (const auto label : graph.domain_labels()) {
    buf.push_back(static_cast<char>(label));
  }
  stream.flush();
  util::require_data(static_cast<bool>(out), "save_graph_compressed: write failed");
}

// --- loading ---------------------------------------------------------------

void read_exact(std::istream& in, void* data, std::size_t size) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  util::require_data(static_cast<std::size_t>(in.gcount()) == size,
                     "load_graph_compressed: truncated file");
}

struct BinaryHeader {
  GraphcEncoding encoding = GraphcEncoding::kPacked;
  detail::GraphcCounts counts;
};

// Decoded sections, assembled into a MachineDomainGraph by
// load_graph_compressed (the friend); the per-encoding readers stay free
// of private access.
struct GraphParts {
  dns::Day day = 0;
  std::vector<std::string> machine_names;
  std::vector<std::string> domain_names;
  std::vector<std::string> e2ld_names;
  std::vector<E2ldId> domain_e2ld;
  std::vector<std::uint64_t> machine_offsets;
  std::vector<DomainId> machine_targets;
  std::vector<std::uint64_t> domain_offsets;
  std::vector<MachineId> domain_targets;
  std::vector<std::uint64_t> ip_offsets;
  std::vector<dns::IpV4> resolved_ips;
  std::vector<Label> machine_labels;
  std::vector<Label> domain_labels;
};

BinaryHeader read_binary_header(std::istream& in) {
  const int version = util::read_format_header(in, kGraphcMagic, kGraphcVersion,
                                               /*legacy_version=*/0);
  util::require_data(version == kGraphcVersion,
                     "load_graph_compressed: not a segf1 graphc stream");
  // read_format_header leaves the header line's newline in the stream.
  util::require_data(in.get() == '\n', "load_graph_compressed: malformed header line");

  BinaryHeader header;
  std::uint8_t encoding = 0;
  std::uint8_t reserved[3] = {};
  read_exact(in, &encoding, 1);
  read_exact(in, reserved, 3);
  util::require_data(encoding == static_cast<std::uint8_t>(GraphcEncoding::kPacked) ||
                         encoding == static_cast<std::uint8_t>(GraphcEncoding::kCompact),
                     "load_graph_compressed: unknown encoding byte");
  util::require_data(reserved[0] == 0 && reserved[1] == 0 && reserved[2] == 0,
                     "load_graph_compressed: nonzero reserved header bytes");
  header.encoding = static_cast<GraphcEncoding>(encoding);
  read_exact(in, &header.counts.day, 4);
  std::uint64_t fields[8] = {};
  read_exact(in, fields, sizeof(fields));
  header.counts.machines = fields[0];
  header.counts.domains = fields[1];
  header.counts.e2lds = fields[2];
  header.counts.edges = fields[3];
  header.counts.ips = fields[4];
  header.counts.machine_name_bytes = fields[5];
  header.counts.domain_name_bytes = fields[6];
  header.counts.e2ld_name_bytes = fields[7];
  return header;
}

std::vector<std::string> split_blob(const std::vector<std::uint64_t>& offsets,
                                    const std::string& blob) {
  util::require_data(!offsets.empty() && offsets.front() == 0 && offsets.back() == blob.size(),
                     "load_graph_compressed: name offsets inconsistent with blob");
  std::vector<std::string> names;
  names.reserve(offsets.size() - 1);
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    util::require_data(offsets[i] <= offsets[i + 1],
                       "load_graph_compressed: name offsets not monotone");
    names.emplace_back(blob, offsets[i], offsets[i + 1] - offsets[i]);
  }
  return names;
}

GraphParts load_packed(std::istream& in, const detail::GraphcCounts& counts) {
  std::size_t position = kHeaderBytes;
  const auto skip_pad = [&] {
    const std::size_t gap = pad8_gap(position);
    char pad[8];
    read_exact(in, pad, gap);
    position += gap;
  };
  const auto read_section = [&](void* data, std::size_t size) {
    read_exact(in, data, size);
    position += size;
    skip_pad();
  };
  skip_pad();

  GraphParts parts;
  parts.day = counts.day;

  const auto read_names = [&](std::uint64_t count, std::uint64_t name_bytes) {
    std::vector<std::uint64_t> offsets(count + 1);
    read_exact(in, offsets.data(), offsets.size() * sizeof(std::uint64_t));
    position += offsets.size() * sizeof(std::uint64_t);
    std::string blob(name_bytes, '\0');
    read_section(blob.data(), blob.size());
    return split_blob(offsets, blob);
  };
  parts.machine_names = read_names(counts.machines, counts.machine_name_bytes);
  parts.domain_names = read_names(counts.domains, counts.domain_name_bytes);
  parts.e2ld_names = read_names(counts.e2lds, counts.e2ld_name_bytes);

  parts.domain_e2ld.resize(counts.domains);
  read_section(parts.domain_e2ld.data(), counts.domains * sizeof(E2ldId));
  parts.machine_offsets.resize(counts.machines + 1);
  read_section(parts.machine_offsets.data(), (counts.machines + 1) * sizeof(std::uint64_t));
  parts.machine_targets.resize(counts.edges);
  read_section(parts.machine_targets.data(), counts.edges * sizeof(DomainId));
  parts.domain_offsets.resize(counts.domains + 1);
  read_section(parts.domain_offsets.data(), (counts.domains + 1) * sizeof(std::uint64_t));
  parts.domain_targets.resize(counts.edges);
  read_section(parts.domain_targets.data(), counts.edges * sizeof(MachineId));
  parts.ip_offsets.resize(counts.domains + 1);
  read_section(parts.ip_offsets.data(), (counts.domains + 1) * sizeof(std::uint64_t));
  parts.resolved_ips.resize(counts.ips);
  read_section(parts.resolved_ips.data(), counts.ips * sizeof(dns::IpV4));
  parts.machine_labels.resize(counts.machines);
  read_section(parts.machine_labels.data(), counts.machines);
  parts.domain_labels.resize(counts.domains);
  read_section(parts.domain_labels.data(), counts.domains);
  for (const auto label : parts.machine_labels) {
    util::require_data(static_cast<unsigned char>(label) <= 2,
                       "load_graph_compressed: malformed label byte");
  }
  for (const auto label : parts.domain_labels) {
    util::require_data(static_cast<unsigned char>(label) <= 2,
                       "load_graph_compressed: malformed label byte");
  }
  return parts;
}

GraphParts load_compact(std::istream& in, const detail::GraphcCounts& counts) {
  const std::string body(std::istreambuf_iterator<char>(in), {});
  const auto* p = reinterpret_cast<const unsigned char*>(body.data());
  const auto* end = p + body.size();

  GraphParts parts;
  parts.day = counts.day;

  const auto read_names = [&](std::uint64_t count) {
    std::vector<std::string> names;
    names.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto length = util::decode_varint(p, end);
      util::require_data(length <= static_cast<std::uint64_t>(end - p),
                         "load_graph_compressed: truncated name");
      names.emplace_back(reinterpret_cast<const char*>(p), length);
      p += length;
    }
    return names;
  };
  parts.machine_names = read_names(counts.machines);
  parts.domain_names = read_names(counts.domains);
  parts.e2ld_names = read_names(counts.e2lds);

  parts.domain_e2ld.reserve(counts.domains);
  for (std::uint64_t d = 0; d < counts.domains; ++d) {
    const auto e = util::decode_varint(p, end);
    util::require_data(e < counts.e2lds, "load_graph_compressed: e2LD id out of range");
    parts.domain_e2ld.push_back(static_cast<E2ldId>(e));
  }

  const auto csr = [&](std::uint64_t nodes, std::uint64_t target_limit,
                       std::vector<std::uint64_t>& offsets, auto& targets) {
    offsets.assign(nodes + 1, 0);
    for (std::uint64_t i = 0; i < nodes; ++i) {
      offsets[i + 1] = offsets[i] + util::decode_varint(p, end);
    }
    util::require_data(offsets.back() == counts.edges,
                       "load_graph_compressed: degree stream inconsistent with edge count");
    targets.resize(counts.edges);
    for (std::uint64_t i = 0; i < nodes; ++i) {
      util::decode_ascending_run(p, end, offsets[i + 1] - offsets[i],
                                 targets.data() + offsets[i]);
    }
    for (const auto t : targets) {
      util::require_data(t < target_limit, "load_graph_compressed: target id out of range");
    }
  };
  csr(counts.machines, counts.domains, parts.machine_offsets, parts.machine_targets);
  csr(counts.domains, counts.machines, parts.domain_offsets, parts.domain_targets);

  parts.ip_offsets.assign(counts.domains + 1, 0);
  for (std::uint64_t d = 0; d < counts.domains; ++d) {
    parts.ip_offsets[d + 1] = parts.ip_offsets[d] + util::decode_varint(p, end);
  }
  util::require_data(parts.ip_offsets.back() == counts.ips,
                     "load_graph_compressed: IP size stream inconsistent with IP count");
  parts.resolved_ips.reserve(counts.ips);
  std::vector<std::uint32_t> run;
  for (std::uint64_t d = 0; d < counts.domains; ++d) {
    const std::size_t size = parts.ip_offsets[d + 1] - parts.ip_offsets[d];
    run.resize(size);
    util::decode_ascending_run(p, end, size, run.data());
    for (const auto value : run) {
      parts.resolved_ips.push_back(dns::IpV4(value));
    }
  }

  const auto labels = [&](std::uint64_t count, std::vector<Label>& out_labels) {
    util::require_data(count <= static_cast<std::uint64_t>(end - p),
                       "load_graph_compressed: truncated label section");
    out_labels.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      util::require_data(*p <= 2, "load_graph_compressed: malformed label byte");
      out_labels.push_back(static_cast<Label>(*p++));
    }
  };
  labels(counts.machines, parts.machine_labels);
  labels(counts.domains, parts.domain_labels);
  util::require_data(p == end, "load_graph_compressed: trailing bytes after graph");
  return parts;
}

}  // namespace

namespace detail {

PackedGraphcWriter::PackedGraphcWriter(std::ostream& out, const GraphcCounts& counts)
    : out_(&out) {
  write_binary_header(out, GraphcEncoding::kPacked, counts);
  written_ = kHeaderBytes;
  pad8();
}

void PackedGraphcWriter::bytes(const void* data, std::size_t size) {
  if (size == 0) {
    return;
  }
  out_->write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  written_ += size;
}

void PackedGraphcWriter::pad8() {
  static constexpr char kZeros[8] = {};
  const std::size_t gap = pad8_gap(written_);
  bytes(kZeros, gap);
}

void PackedGraphcWriter::finish() {
  util::require_data(static_cast<bool>(*out_), "save_graph_compressed: write failed");
}

}  // namespace detail

void save_graph_compressed(const GraphView& graph, std::ostream& out,
                           GraphcEncoding encoding) {
  if (encoding == GraphcEncoding::kPacked) {
    save_packed(graph, out);
  } else {
    save_compact(graph, out);
  }
}

MachineDomainGraph load_graph_compressed(std::istream& in) {
  const BinaryHeader header = read_binary_header(in);
  GraphParts parts = header.encoding == GraphcEncoding::kPacked
                         ? load_packed(in, header.counts)
                         : load_compact(in, header.counts);

  MachineDomainGraph graph;
  graph.day_ = parts.day;
  graph.machine_names_ = std::move(parts.machine_names);
  graph.domain_names_ = std::move(parts.domain_names);
  graph.e2ld_names_ = std::move(parts.e2ld_names);
  graph.domain_e2ld_ = std::move(parts.domain_e2ld);
  graph.machine_offsets_ = std::move(parts.machine_offsets);
  graph.machine_targets_ = std::move(parts.machine_targets);
  graph.domain_offsets_ = std::move(parts.domain_offsets);
  graph.domain_targets_ = std::move(parts.domain_targets);
  graph.ip_offsets_ = std::move(parts.ip_offsets);
  graph.resolved_ips_ = std::move(parts.resolved_ips);
  graph.machine_labels_ = std::move(parts.machine_labels);
  graph.domain_labels_ = std::move(parts.domain_labels);

  // Same structural checks as load_graph.
  util::require_data(graph.machine_offsets_.size() == graph.machine_names_.size() + 1 &&
                         graph.domain_offsets_.size() == graph.domain_names_.size() + 1 &&
                         graph.ip_offsets_.size() == graph.domain_names_.size() + 1,
                     "load_graph_compressed: offset table size mismatch");
  util::require_data(graph.machine_targets_.size() == graph.domain_targets_.size(),
                     "load_graph_compressed: edge count mismatch between directions");
  util::require_data(graph.domain_e2ld_.size() == graph.domain_names_.size(),
                     "load_graph_compressed: e2LD annotation size mismatch");
  util::require_data(graph.machine_offsets_.empty() ||
                         graph.machine_offsets_.back() == graph.machine_targets_.size(),
                     "load_graph_compressed: machine CSR inconsistent");
  util::require_data(graph.ip_offsets_.empty() ||
                         graph.ip_offsets_.back() == graph.resolved_ips_.size(),
                     "load_graph_compressed: IP CSR inconsistent");
  graph.rebuild_name_index();
  return graph;
}

MappedGraph map_graph(const std::string& path) {
  util::MmapFile file(path);
  const unsigned char* base = file.data();
  const std::size_t size = file.size();
  util::require_data(size >= kHeaderBytes, "map_graph: file too small for a graphc header");
  util::require_data(std::memcmp(base, kTextHeader.data(), kTextHeader.size()) == 0,
                     "map_graph: not a segf1 graphc 1 file");
  const unsigned char* cursor = base + kTextHeader.size();
  util::require_data(cursor[0] == static_cast<std::uint8_t>(GraphcEncoding::kPacked),
                     "map_graph: file is not packed-encoded (re-save with kPacked)");
  util::require_data(cursor[1] == 0 && cursor[2] == 0 && cursor[3] == 0,
                     "map_graph: nonzero reserved header bytes");
  detail::GraphcCounts counts;
  std::memcpy(&counts.day, cursor + 4, 4);
  std::uint64_t fields[8];
  std::memcpy(fields, cursor + 8, sizeof(fields));
  counts.machines = fields[0];
  counts.domains = fields[1];
  counts.e2lds = fields[2];
  counts.edges = fields[3];
  counts.ips = fields[4];
  counts.machine_name_bytes = fields[5];
  counts.domain_name_bytes = fields[6];
  counts.e2ld_name_bytes = fields[7];

  std::size_t position = kHeaderBytes + pad8_gap(kHeaderBytes);
  // Claims the next section: `count` elements of `element_bytes` each plus
  // `extra` trailing bytes. Header counts are untrusted, so the size
  // arithmetic is overflow-checked before it is compared with the file.
  const auto take = [&](std::uint64_t count, std::uint64_t element_bytes,
                        std::uint64_t extra = 0) {
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    util::require_data(count <= (kMax - extra) / element_bytes,
                       "map_graph: section size overflows (corrupt header counts)");
    const std::uint64_t section_bytes = count * element_bytes + extra;
    util::require_data(section_bytes <= size && position <= size - section_bytes,
                       "map_graph: truncated section");
    const unsigned char* begin = base + position;
    position += section_bytes;
    position += pad8_gap(position);
    return begin;
  };
  // An offset table holds count + 1 entries; count must leave room for it.
  const auto offset_entries = [](std::uint64_t count) {
    util::require_data(count < std::numeric_limits<std::uint64_t>::max(),
                       "map_graph: section size overflows (corrupt header counts)");
    return count + 1;
  };

  const auto name_table = [&](std::uint64_t count, std::uint64_t name_bytes) {
    const auto* offsets = reinterpret_cast<const std::uint64_t*>(
        take(offset_entries(count), sizeof(std::uint64_t), name_bytes));
    const auto* blob = reinterpret_cast<const char*>(offsets + count + 1);
    util::require_data(offsets[0] == 0 && offsets[count] == name_bytes,
                       "map_graph: name offsets inconsistent with blob");
    for (std::uint64_t i = 0; i < count; ++i) {
      util::require_data(offsets[i] <= offsets[i + 1],
                         "map_graph: name offsets not monotone");
    }
    return NameTableView::from_blob(blob, offsets, count);
  };
  const auto machines = name_table(counts.machines, counts.machine_name_bytes);
  const auto domains = name_table(counts.domains, counts.domain_name_bytes);
  const auto e2lds = name_table(counts.e2lds, counts.e2ld_name_bytes);

  const auto* domain_e2ld =
      reinterpret_cast<const E2ldId*>(take(counts.domains, sizeof(E2ldId)));
  const auto offsets_section = [&](std::uint64_t count, std::uint64_t back_value,
                                   const char* what) {
    const auto* offsets = reinterpret_cast<const std::uint64_t*>(
        take(offset_entries(count), sizeof(std::uint64_t)));
    if (offsets[0] != 0 || offsets[count] != back_value) [[unlikely]] {
      util::throw_parse_error({"map_graph: ", what, " offsets inconsistent"});
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      if (offsets[i] > offsets[i + 1]) [[unlikely]] {
        util::throw_parse_error({"map_graph: ", what, " offsets not monotone"});
      }
    }
    return offsets;
  };
  const auto* machine_offsets = offsets_section(counts.machines, counts.edges, "machine");
  const auto* machine_targets =
      reinterpret_cast<const DomainId*>(take(counts.edges, sizeof(DomainId)));
  const auto* domain_offsets = offsets_section(counts.domains, counts.edges, "domain");
  const auto* domain_targets =
      reinterpret_cast<const MachineId*>(take(counts.edges, sizeof(MachineId)));
  const auto* ip_offsets = offsets_section(counts.domains, counts.ips, "IP");
  const auto* resolved_ips =
      reinterpret_cast<const dns::IpV4*>(take(counts.ips, sizeof(dns::IpV4)));
  const auto* machine_labels = reinterpret_cast<const Label*>(take(counts.machines, 1));
  const auto* domain_labels = reinterpret_cast<const Label*>(take(counts.domains, 1));
  util::require_data(position == size, "map_graph: file size inconsistent with header counts");
  for (std::uint64_t d = 0; d < counts.domains; ++d) {
    util::require_data(domain_e2ld[d] < counts.e2lds, "map_graph: e2LD id out of range");
  }
  // CSR targets index the other side's tables; an id past the end would be
  // served straight into out-of-bounds reads by every graph consumer.
  for (std::uint64_t e = 0; e < counts.edges; ++e) {
    util::require_data(machine_targets[e] < counts.domains,
                       "map_graph: machine CSR target (domain id) out of range");
    util::require_data(domain_targets[e] < counts.machines,
                       "map_graph: domain CSR target (machine id) out of range");
  }
  for (std::uint64_t m = 0; m < counts.machines; ++m) {
    util::require_data(static_cast<unsigned char>(machine_labels[m]) <= 2,
                       "map_graph: malformed label byte");
  }
  for (std::uint64_t d = 0; d < counts.domains; ++d) {
    util::require_data(static_cast<unsigned char>(domain_labels[d]) <= 2,
                       "map_graph: malformed label byte");
  }

  GraphView view = make_packed_view(
      counts.day, machines, domains, e2lds, {domain_e2ld, counts.domains},
      {machine_offsets, counts.machines + 1}, {machine_targets, counts.edges},
      {domain_offsets, counts.domains + 1}, {domain_targets, counts.edges},
      {ip_offsets, counts.domains + 1}, {resolved_ips, counts.ips},
      {machine_labels, counts.machines}, {domain_labels, counts.domains});
  return MappedGraph{std::move(file), view};
}

}  // namespace seg::graph
