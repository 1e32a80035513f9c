#include "graph/oocore.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <queue>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "dns/domain_name.h"
#include "dns/trace_source.h"
#include "graph/graph_compressed.h"
#include "util/obs/trace.h"
#include "util/require.h"
#include "util/varint.h"

namespace seg::graph {

namespace {

// --- spill segments ---------------------------------------------------------
//
// A spill file holds concatenated sorted runs of distinct uint64 pairs,
// each run delta + varint coded (util/varint.h). Runs are merged back with
// a k-way heap; duplicates across runs collapse during the merge, so the
// merged stream is globally sorted and distinct.

struct SpillSegment {
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t count = 0;
};

class SpillWriter {
 public:
  explicit SpillWriter(std::string path) : path_(std::move(path)), out_(path_, std::ios::binary) {
    util::require_data(out_.is_open(), "oocore: cannot create spill file '" + path_ + "'");
  }

  /// Sorts, deduplicates, and appends `pairs` as one segment; clears it.
  void spill(std::vector<std::uint64_t>& pairs) {
    if (pairs.empty()) {
      return;
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    encoded_.clear();
    util::append_ascending_run(encoded_, std::span<const std::uint64_t>(pairs));
    out_.write(encoded_.data(), static_cast<std::streamsize>(encoded_.size()));
    segments_.push_back({offset_, encoded_.size(), pairs.size()});
    offset_ += encoded_.size();
    pairs.clear();
  }

  void finish() {
    out_.flush();
    util::require_data(static_cast<bool>(out_), "oocore: spill write failed");
    out_.close();
  }

  const std::string& path() const { return path_; }
  const std::vector<SpillSegment>& segments() const { return segments_; }
  std::uint64_t bytes() const { return offset_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::string encoded_;
  std::vector<SpillSegment> segments_;
  std::uint64_t offset_ = 0;
};

/// Streams one segment's values back with a small refill buffer, so a merge
/// holds O(segments * buffer) bytes regardless of segment size.
class RunReader {
 public:
  RunReader(const std::string& path, const SpillSegment& segment)
      : in_(path, std::ios::binary),
        remaining_bytes_(segment.bytes),
        remaining_values_(segment.count) {
    util::require_data(in_.is_open(), "oocore: cannot reopen spill file '" + path + "'");
    in_.seekg(static_cast<std::streamoff>(segment.offset));
    buffer_.resize(kBufferBytes);
  }

  bool next(std::uint64_t& value) {
    if (remaining_values_ == 0) {
      return false;
    }
    if (filled_ - pos_ < util::kMaxVarintBytes && remaining_bytes_ > 0) {
      refill();
    }
    const unsigned char* p = buffer_.data() + pos_;
    const auto raw = util::decode_varint(p, buffer_.data() + filled_);
    pos_ = static_cast<std::size_t>(p - buffer_.data());
    value = first_ ? raw : prev_ + raw + 1;
    first_ = false;
    prev_ = value;
    --remaining_values_;
    return true;
  }

 private:
  static constexpr std::size_t kBufferBytes = std::size_t{64} << 10;

  void refill() {
    const std::size_t tail = filled_ - pos_;
    std::memmove(buffer_.data(), buffer_.data() + pos_, tail);
    pos_ = 0;
    filled_ = tail;
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(buffer_.size() - filled_, remaining_bytes_));
    in_.read(reinterpret_cast<char*>(buffer_.data() + filled_),
             static_cast<std::streamsize>(want));
    util::require_data(static_cast<std::size_t>(in_.gcount()) == want,
                       "oocore: truncated spill segment");
    filled_ += want;
    remaining_bytes_ -= want;
  }

  std::ifstream in_;
  std::vector<unsigned char> buffer_;
  std::size_t pos_ = 0;
  std::size_t filled_ = 0;
  std::uint64_t remaining_bytes_;
  std::uint64_t remaining_values_;
  std::uint64_t prev_ = 0;
  bool first_ = true;
};

/// K-way merge over a spill file's segments, yielding globally sorted
/// distinct values. Construct anew for every pass over the stream.
class SpillMerger {
 public:
  SpillMerger(const std::string& path, const std::vector<SpillSegment>& segments) {
    readers_.reserve(segments.size());
    for (const auto& segment : segments) {
      readers_.emplace_back(path, segment);
      std::uint64_t value = 0;
      if (readers_.back().next(value)) {
        heap_.push({value, readers_.size() - 1});
      }
    }
  }

  bool next(std::uint64_t& value) {
    if (heap_.empty()) {
      return false;
    }
    value = heap_.top().first;
    while (!heap_.empty() && heap_.top().first == value) {
      const auto source = heap_.top().second;
      heap_.pop();
      std::uint64_t refilled = 0;
      if (readers_[source].next(refilled)) {
        heap_.push({refilled, source});
      }
    }
    return true;
  }

 private:
  using Entry = std::pair<std::uint64_t, std::size_t>;
  std::vector<RunReader> readers_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
};

constexpr std::uint32_t low32(std::uint64_t pair) {
  return static_cast<std::uint32_t>(pair & 0xffffffffu);
}
constexpr std::uint32_t high32(std::uint64_t pair) {
  return static_cast<std::uint32_t>(pair >> 32);
}

struct SpillCleanup {
  std::vector<std::string> paths;
  ~SpillCleanup() {
    for (const auto& path : paths) {
      std::remove(path.c_str());
    }
  }
};

}  // namespace

OutOfCoreResult prepare_graph_out_of_core(const std::string& trace_path,
                                          const dns::PublicSuffixList& psl,
                                          const NameSet& cc_blacklist,
                                          const NameSet& e2ld_whitelist,
                                          const std::string& out_path,
                                          const OutOfCoreConfig& config) {
  util::require(config.chunk_records > 0, "oocore: chunk_records must be positive");
  const auto& pruning = config.pruning;
  util::require(pruning.proxy_degree_percentile > 0.0 && pruning.proxy_degree_percentile <= 1.0,
                "oocore: proxy_degree_percentile must be in (0, 1]");
  util::require(pruning.popular_e2ld_fraction > 0.0 && pruning.popular_e2ld_fraction <= 1.0,
                "oocore: popular_e2ld_fraction must be in (0, 1]");

  OutOfCoreResult result;
  const std::string spill_base =
      config.spill_dir.empty() ? out_path : config.spill_dir + "/oocore";
  SpillCleanup cleanup;

  // --- Scan: one serial pass in file order. Machine/domain/e2LD ids are
  // assigned by first occurrence, exactly as GraphBuilder::add_query (and
  // therefore the sharded builder, which is bit-identical to it) assigns
  // them; edge and IP pairs go to sorted compressed spill segments.
  obs::Span scan_span("oocore/scan");
  StringIdMap<MachineId> machine_ids;
  StringIdMap<DomainId> domain_ids;
  std::vector<std::string> machine_names;
  std::vector<std::string> domain_names;
  StringIdMap<E2ldId> e2ld_ids;
  std::vector<std::string> e2ld_names;
  std::vector<E2ldId> domain_e2ld;

  SpillWriter edge_spill(spill_base + ".spill-edges");
  SpillWriter ip_spill(spill_base + ".spill-ips");
  cleanup.paths = {edge_spill.path(), ip_spill.path()};
  std::vector<std::uint64_t> edge_buffer;
  std::vector<std::uint64_t> ip_buffer;
  edge_buffer.reserve(config.chunk_records);
  ip_buffer.reserve(config.chunk_records);

  // The first record fixes the day; the output graph holds exactly one.
  dns::FileTraceSource source(trace_path);
  dns::QueryRecord record;
  dns::Day day = 0;
  while (source.next(record)) {
    if (result.records++ == 0) {
      day = record.day;
    } else if (record.day != day) [[unlikely]] {
      throw util::ParseError("oocore: trace spans more than one day (day " +
                             std::to_string(record.day) + " after day " +
                             std::to_string(day) + ")");
    }
    if (!dns::DomainName::is_valid(record.qname) || record.machine.empty()) {
      ++result.skipped_records;
      continue;
    }
    std::string normalized_storage;
    std::string_view normalized = record.qname;
    if (!dns::DomainName::is_normalized(record.qname)) {
      normalized_storage = dns::DomainName::parse(record.qname).str();
      normalized = normalized_storage;
    }

    MachineId m;
    if (const auto it = machine_ids.find(record.machine); it != machine_ids.end()) {
      m = it->second;
    } else {
      m = static_cast<MachineId>(machine_names.size());
      machine_names.emplace_back(record.machine);
      machine_ids.emplace(machine_names.back(), m);
    }

    DomainId d;
    if (const auto it = domain_ids.find(normalized); it != domain_ids.end()) {
      d = it->second;
    } else {
      d = static_cast<DomainId>(domain_names.size());
      domain_names.emplace_back(normalized);
      domain_ids.emplace(domain_names.back(), d);
      // e2LDs intern at domain first occurrence — the same sequence the
      // in-memory builder produces by iterating domains in id order.
      const std::string e2ld(psl.e2ld_or_self(normalized));
      if (const auto it = e2ld_ids.find(e2ld); it != e2ld_ids.end()) {
        domain_e2ld.push_back(it->second);
      } else {
        const auto e = static_cast<E2ldId>(e2ld_names.size());
        e2ld_names.push_back(e2ld);
        e2ld_ids.emplace(e2ld, e);
        domain_e2ld.push_back(e);
      }
    }

    edge_buffer.push_back((static_cast<std::uint64_t>(m) << 32) | d);
    if (edge_buffer.size() >= config.chunk_records) {
      edge_spill.spill(edge_buffer);
    }
    for (const auto ip : record.resolved_ips) {
      ip_buffer.push_back((static_cast<std::uint64_t>(d) << 32) | ip.value());
      if (ip_buffer.size() >= config.chunk_records) {
        ip_spill.spill(ip_buffer);
      }
    }
  }
  edge_spill.spill(edge_buffer);
  ip_spill.spill(ip_buffer);
  edge_spill.finish();
  ip_spill.finish();
  machine_ids = {};
  domain_ids = {};
  e2ld_ids = {};
  result.spill_segments = edge_spill.segments().size() + ip_spill.segments().size();
  result.spill_bytes = edge_spill.bytes() + ip_spill.bytes();
  scan_span.close();

  const std::size_t nm = machine_names.size();
  const std::size_t nd = domain_names.size();
  const std::size_t ne = e2ld_names.size();
  PruneStats& stats = result.prune_stats;
  stats.machines_before = nm;
  stats.domains_before = nd;

  // --- Labels (apply_labels semantics): domains from the lists, machines
  // derived from their distinct-domain label counts during the first edge
  // merge, which also yields the unpruned machine degrees for R1/R2.
  obs::Span label_span("oocore/labels");
  std::vector<Label> domain_labels(nd, Label::kUnknown);
  for (DomainId d = 0; d < nd; ++d) {
    if (cc_blacklist.contains(domain_names[d])) {
      domain_labels[d] = Label::kMalware;
    } else if (e2ld_whitelist.contains(e2ld_names[domain_e2ld[d]])) {
      domain_labels[d] = Label::kBenign;
    }
  }

  std::vector<std::uint64_t> degrees(nm, 0);
  std::vector<std::uint32_t> machine_malware(nm, 0);
  std::vector<std::uint32_t> machine_benign(nm, 0);
  {
    SpillMerger merge(edge_spill.path(), edge_spill.segments());
    std::uint64_t pair = 0;
    while (merge.next(pair)) {
      const auto m = high32(pair);
      const auto d = low32(pair);
      ++degrees[m];
      ++stats.edges_before;
      if (domain_labels[d] == Label::kMalware) {
        ++machine_malware[m];
      } else if (domain_labels[d] == Label::kBenign) {
        ++machine_benign[m];
      }
    }
  }
  std::vector<Label> machine_labels(nm, Label::kUnknown);
  for (MachineId m = 0; m < nm; ++m) {
    machine_labels[m] =
        derive_machine_label(degrees[m], machine_malware[m], machine_benign[m]);
  }
  machine_malware = {};
  machine_benign = {};
  label_span.close();

  // --- R1 + R2 (same arithmetic as prune()).
  obs::Span masks_span("oocore/prune-masks");
  std::uint64_t theta_d = std::numeric_limits<std::uint64_t>::max();
  if (!degrees.empty()) {
    std::vector<std::uint64_t> sorted = degrees;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(pruning.proxy_degree_percentile * static_cast<double>(sorted.size())));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    theta_d = sorted[std::min(index, sorted.size() - 1)];
    theta_d = std::max<std::uint64_t>(theta_d, pruning.inactive_machine_max_degree + 2);
  }
  stats.theta_d = theta_d;

  std::vector<std::uint8_t> keep_machine(nm, 1);
  for (MachineId m = 0; m < nm; ++m) {
    const bool is_malware = machine_labels[m] == Label::kMalware;
    if (degrees[m] <= pruning.inactive_machine_max_degree) {
      if (is_malware) {
        ++stats.malware_machines_kept_by_exception;
      } else {
        keep_machine[m] = 0;
        ++stats.machines_removed_r1;
        continue;
      }
    }
    if (degrees[m] > theta_d) {
      keep_machine[m] = 0;
      ++stats.machines_removed_r2;
    }
  }

  // --- Second edge merge: domain degrees over kept machines, plus distinct
  // kept machines per e2LD. The merged stream is machine-major, so each
  // machine contributes its distinct e2LDs through a stamp array.
  std::vector<std::uint64_t> domain_degree(nd, 0);
  std::vector<std::uint64_t> e2ld_machines(ne, 0);
  {
    std::vector<std::uint32_t> stamp(ne, 0xffffffffu);
    SpillMerger merge(edge_spill.path(), edge_spill.segments());
    std::uint64_t pair = 0;
    while (merge.next(pair)) {
      const auto m = high32(pair);
      if (keep_machine[m] == 0) {
        continue;
      }
      const auto d = low32(pair);
      ++domain_degree[d];
      const auto e = domain_e2ld[d];
      if (stamp[e] != m) {
        stamp[e] = m;
        ++e2ld_machines[e];
      }
    }
  }

  // --- R3 + R4.
  const auto theta_m = static_cast<std::uint64_t>(
      std::ceil(pruning.popular_e2ld_fraction * static_cast<double>(nm)));
  stats.theta_m = theta_m;
  std::vector<std::uint8_t> keep_domain(nd, 1);
  for (DomainId d = 0; d < nd; ++d) {
    const bool is_malware = domain_labels[d] == Label::kMalware;
    if (e2ld_machines[domain_e2ld[d]] >= theta_m) {
      keep_domain[d] = 0;
      ++stats.domains_removed_r4;
      continue;
    }
    if (domain_degree[d] < pruning.min_domain_machines) {
      if (is_malware && domain_degree[d] > 0) {
        ++stats.malware_domains_kept_by_exception;
      } else {
        keep_domain[d] = 0;
        ++stats.domains_removed_r3;
      }
    }
  }
  degrees = {};
  domain_degree = {};
  e2ld_machines = {};

  // --- Dense remaps and the pruned node-level tables (prune_impl
  // semantics: names/labels carried over, e2LDs re-interned in surviving
  // domain order).
  std::vector<MachineId> machine_map(nm, static_cast<MachineId>(nm));
  std::vector<MachineId> kept_machines;
  for (MachineId m = 0; m < nm; ++m) {
    if (keep_machine[m] != 0) {
      machine_map[m] = static_cast<MachineId>(kept_machines.size());
      kept_machines.push_back(m);
    }
  }
  std::vector<DomainId> domain_map(nd, static_cast<DomainId>(nd));
  std::vector<DomainId> kept_domains;
  for (DomainId d = 0; d < nd; ++d) {
    if (keep_domain[d] != 0) {
      domain_map[d] = static_cast<DomainId>(kept_domains.size());
      kept_domains.push_back(d);
    }
  }
  const std::size_t nm_new = kept_machines.size();
  const std::size_t nd_new = kept_domains.size();
  stats.machines_after = nm_new;
  stats.domains_after = nd_new;

  StringIdMap<E2ldId> new_e2ld_ids;
  std::vector<std::string> new_e2ld_names;
  std::vector<E2ldId> new_domain_e2ld;
  new_domain_e2ld.reserve(nd_new);
  for (const auto d : kept_domains) {
    const std::string& e2ld = e2ld_names[domain_e2ld[d]];
    if (const auto it = new_e2ld_ids.find(e2ld); it != new_e2ld_ids.end()) {
      new_domain_e2ld.push_back(it->second);
    } else {
      const auto id = static_cast<E2ldId>(new_e2ld_names.size());
      new_e2ld_names.push_back(e2ld);
      new_e2ld_ids.emplace(e2ld, id);
      new_domain_e2ld.push_back(id);
    }
  }
  new_e2ld_ids = {};
  masks_span.close();

  // --- Third edge merge: surviving CSR shape (degrees both sides), which
  // fixes every header count and section offset before any output byte.
  obs::Span write_span("oocore/write");
  std::vector<std::uint64_t> machine_offsets(nm_new + 1, 0);
  std::vector<std::uint64_t> domain_offsets(nd_new + 1, 0);
  {
    SpillMerger merge(edge_spill.path(), edge_spill.segments());
    std::uint64_t pair = 0;
    while (merge.next(pair)) {
      const auto m = high32(pair);
      const auto d = low32(pair);
      if (keep_machine[m] != 0 && keep_domain[d] != 0) {
        ++machine_offsets[machine_map[m] + 1];
        ++domain_offsets[domain_map[d] + 1];
      }
    }
  }
  for (std::size_t i = 1; i <= nm_new; ++i) {
    machine_offsets[i] += machine_offsets[i - 1];
  }
  for (std::size_t i = 1; i <= nd_new; ++i) {
    domain_offsets[i] += domain_offsets[i - 1];
  }
  const std::uint64_t edges_after = machine_offsets.back();
  stats.edges_after = edges_after;

  // --- First IP merge: surviving per-domain IP-set sizes.
  std::vector<std::uint64_t> ip_offsets(nd_new + 1, 0);
  {
    SpillMerger merge(ip_spill.path(), ip_spill.segments());
    std::uint64_t pair = 0;
    while (merge.next(pair)) {
      const auto d = high32(pair);
      if (keep_domain[d] != 0) {
        ++ip_offsets[domain_map[d] + 1];
      }
    }
  }
  for (std::size_t i = 1; i <= nd_new; ++i) {
    ip_offsets[i] += ip_offsets[i - 1];
  }
  const std::uint64_t ips_after = ip_offsets.back();

  // --- Stream the packed graphc file section by section. Each merged
  // stream arrives in exactly the order the section stores (the id remaps
  // are monotone), so every section is written strictly sequentially.
  detail::GraphcCounts counts;
  counts.day = day;
  counts.machines = nm_new;
  counts.domains = nd_new;
  counts.e2lds = new_e2ld_names.size();
  counts.edges = edges_after;
  counts.ips = ips_after;
  for (const auto m : kept_machines) {
    counts.machine_name_bytes += machine_names[m].size();
  }
  for (const auto d : kept_domains) {
    counts.domain_name_bytes += domain_names[d].size();
  }
  for (const auto& name : new_e2ld_names) {
    counts.e2ld_name_bytes += name.size();
  }

  std::ofstream out(out_path, std::ios::binary);
  util::require_data(out.is_open(), "oocore: cannot create output file '" + out_path + "'");
  detail::PackedGraphcWriter writer(out, counts);
  writer.name_table(nm_new, [&](std::size_t i) {
    return std::string_view(machine_names[kept_machines[i]]);
  });
  writer.name_table(nd_new, [&](std::size_t i) {
    return std::string_view(domain_names[kept_domains[i]]);
  });
  writer.name_table(new_e2ld_names.size(),
                    [&](std::size_t i) { return std::string_view(new_e2ld_names[i]); });

  writer.bytes(new_domain_e2ld.data(), new_domain_e2ld.size() * sizeof(E2ldId));
  writer.pad8();
  writer.bytes(machine_offsets.data(), machine_offsets.size() * sizeof(std::uint64_t));
  writer.pad8();

  // machine_targets: fourth edge merge streams the kept edges in
  // (machine, domain) order; the swapped pairs spill for the reverse CSR.
  SpillWriter swap_spill(spill_base + ".spill-swapped");
  cleanup.paths.push_back(swap_spill.path());
  {
    std::vector<std::uint64_t> swap_buffer;
    swap_buffer.reserve(config.chunk_records);
    SpillMerger merge(edge_spill.path(), edge_spill.segments());
    std::uint64_t pair = 0;
    while (merge.next(pair)) {
      const auto m = high32(pair);
      const auto d = low32(pair);
      if (keep_machine[m] == 0 || keep_domain[d] == 0) {
        continue;
      }
      writer.u32(domain_map[d]);
      swap_buffer.push_back((static_cast<std::uint64_t>(domain_map[d]) << 32) |
                            machine_map[m]);
      if (swap_buffer.size() >= config.chunk_records) {
        swap_spill.spill(swap_buffer);
      }
    }
    swap_spill.spill(swap_buffer);
    swap_spill.finish();
  }
  writer.pad8();

  writer.bytes(domain_offsets.data(), domain_offsets.size() * sizeof(std::uint64_t));
  writer.pad8();
  {
    SpillMerger merge(swap_spill.path(), swap_spill.segments());
    std::uint64_t pair = 0;
    std::uint64_t written = 0;
    while (merge.next(pair)) {
      writer.u32(low32(pair));
      ++written;
    }
    util::require(written == edges_after, "oocore: swapped edge stream lost pairs");
  }
  writer.pad8();

  writer.bytes(ip_offsets.data(), ip_offsets.size() * sizeof(std::uint64_t));
  writer.pad8();
  {
    SpillMerger merge(ip_spill.path(), ip_spill.segments());
    std::uint64_t pair = 0;
    while (merge.next(pair)) {
      if (keep_domain[high32(pair)] != 0) {
        writer.u32(low32(pair));
      }
    }
  }
  writer.pad8();

  {
    std::vector<Label> pruned(nm_new);
    for (std::size_t i = 0; i < nm_new; ++i) {
      pruned[i] = machine_labels[kept_machines[i]];
    }
    writer.bytes(pruned.data(), pruned.size());
    writer.pad8();
  }
  {
    std::vector<Label> pruned(nd_new);
    for (std::size_t i = 0; i < nd_new; ++i) {
      pruned[i] = domain_labels[kept_domains[i]];
    }
    writer.bytes(pruned.data(), pruned.size());
    writer.pad8();
  }
  writer.finish();
  out.flush();
  util::require_data(static_cast<bool>(out), "oocore: output write failed");
  write_span.close();
  return result;
}

}  // namespace seg::graph
