#include "graph/graph_compressed.h"

#include <cstring>
#include <limits>
#include <ostream>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/require.h"
#include "util/serialize.h"

namespace seg::graph {

namespace {

// The mapped loader serves fixed-width sections in place, so the packed
// encoding inherits the host's layout for these types.
static_assert(sizeof(dns::IpV4) == 4 && std::is_trivially_copyable_v<dns::IpV4>,
              "packed graphc stores resolved IPs as raw 4-byte values");
static_assert(sizeof(Label) == 1, "packed graphc stores labels as raw bytes");

constexpr std::string_view kGraphcMagic = "graphc";
constexpr int kGraphcVersion = 1;
// The binary header's encoding byte. 1 names the packed layout, the only
// one; other values are rejected.
constexpr std::uint8_t kPackedEncoding = 1;
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

}  // namespace

namespace detail {

PackedGraphcWriter::PackedGraphcWriter(std::ostream& out, const GraphcCounts& counts)
    : out_(&out) {
  util::write_format_header(out, kGraphcMagic, kGraphcVersion);
  const std::uint8_t reserved[3] = {0, 0, 0};
  out.write(reinterpret_cast<const char*>(&kPackedEncoding), 1);
  out.write(reinterpret_cast<const char*>(reserved), 3);
  out.write(reinterpret_cast<const char*>(&counts.day), 4);
  const std::uint64_t fields[8] = {counts.machines,           counts.domains,
                                   counts.e2lds,              counts.edges,
                                   counts.ips,                counts.machine_name_bytes,
                                   counts.domain_name_bytes,  counts.e2ld_name_bytes};
  out.write(reinterpret_cast<const char*>(fields), sizeof(fields));
  written_ = kHeaderBytes;
  pad8();
}

void PackedGraphcWriter::name_table(std::size_t count,
                                    const std::function<std::string_view(std::size_t)>& name_of) {
  std::vector<std::uint64_t> offsets(count + 1, 0);
  for (std::size_t i = 0; i < count; ++i) {
    offsets[i + 1] = offsets[i] + name_of(i).size();
  }
  bytes(offsets.data(), offsets.size() * sizeof(std::uint64_t));
  std::string blob;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string_view name = name_of(i);
    blob.append(name.data(), name.size());
    if (blob.size() >= (1u << 20)) {
      bytes(blob.data(), blob.size());
      blob.clear();
    }
  }
  bytes(blob.data(), blob.size());
  pad8();
}

void PackedGraphcWriter::bytes(const void* data, std::size_t size) {
  if (size == 0) {
    return;
  }
  out_->write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  written_ += size;
}

std::uint64_t PackedGraphcWriter::reserve_section(std::uint64_t size) {
  const std::uint64_t offset = written_;
  out_->seekp(static_cast<std::streamoff>(size), std::ios::cur);
  written_ += size;
  return offset;
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

void save_graph_compressed(const GraphView& graph, std::ostream& out) {
  detail::PackedGraphcWriter writer(out, counts_of(graph));
  for (const auto& names : {graph.machine_names(), graph.domain_names(), graph.e2ld_names()}) {
    writer.name_table(names.size(), [&names](std::size_t i) { return names[i]; });
  }
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

MappedGraph map_graph(const std::string& path) {
  util::MmapFile file(path);
  const unsigned char* base = file.data();
  const std::size_t size = file.size();
  util::require_data(size >= kHeaderBytes, "map_graph: file too small for a graphc header");
  util::require_data(std::memcmp(base, kTextHeader.data(), kTextHeader.size()) == 0,
                     "map_graph: not a segf1 graphc 1 file");
  const unsigned char* cursor = base + kTextHeader.size();
  util::require_data(cursor[0] == kPackedEncoding, "map_graph: unknown encoding");
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
  // served straight into out-of-bounds reads by every graph consumer. Each
  // node's targets strictly ascend, as every writer emits them, so a zeroed
  // target section (what a crashed prepare leaves in its gaps) fails at any
  // node of degree 2 or more, as do unsorted or repeated targets; and once
  // a node's targets ascend, its last one is its largest, so it alone needs
  // the range check.
  const auto check_targets = [](const std::uint64_t* offsets, std::uint64_t nodes,
                                const std::uint32_t* targets, std::uint64_t bound,
                                const char* what) {
    for (std::uint64_t n = 0; n < nodes; ++n) {
      const std::uint64_t begin = offsets[n];
      const std::uint64_t end = offsets[n + 1];
      for (std::uint64_t e = begin + 1; e < end; ++e) {
        if (targets[e] <= targets[e - 1]) [[unlikely]] {
          util::throw_parse_error({"map_graph: ", what, " CSR targets do not strictly ascend"});
        }
      }
      if (begin < end && targets[end - 1] >= bound) [[unlikely]] {
        util::throw_parse_error({"map_graph: ", what, " CSR target out of range"});
      }
    }
  };
  check_targets(machine_offsets, counts.machines, machine_targets, counts.domains, "machine");
  check_targets(domain_offsets, counts.domains, domain_targets, counts.machines, "domain");
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
