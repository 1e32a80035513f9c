#include "graph/sharded_builder.h"

#include <algorithm>
#include <string>
#include <utility>

#include "dns/domain_name.h"
#include "graph/intern.h"
#include "util/obs/metrics.h"
#include "util/obs/trace.h"
#include "util/parallel.h"

namespace seg::graph {

namespace {

// Shard-local accumulation state. Ids are local to the shard; the merge
// phase remaps them to global first-occurrence ids.
struct Shard {
  StringIdMap<MachineId> machine_ids;
  StringIdMap<DomainId> domain_ids;
  std::vector<std::string> machine_names;  // local-id order
  std::vector<std::string> domain_names;   // local-id order
  std::vector<std::pair<MachineId, DomainId>> edges;  // local ids
  std::vector<std::vector<dns::IpV4>> domain_ips;     // by local domain id
  std::size_t skipped = 0;

  // Mirrors GraphBuilder::add_query, with shard-local interning.
  void add_query(std::string_view machine, std::string_view qname,
                 std::span<const dns::IpV4> ips) {
    if (!dns::DomainName::is_valid(qname) || machine.empty()) {
      ++skipped;
      return;
    }
    std::string normalized_storage;
    std::string_view normalized = qname;
    if (!dns::DomainName::is_normalized(qname)) {
      normalized_storage = dns::DomainName::parse(qname).str();
      normalized = normalized_storage;
    }

    MachineId m;
    if (const auto it = machine_ids.find(machine); it != machine_ids.end()) {
      m = it->second;
    } else {
      m = static_cast<MachineId>(machine_names.size());
      machine_names.emplace_back(machine);
      machine_ids.emplace(machine_names.back(), m);
    }

    DomainId d;
    if (const auto it = domain_ids.find(normalized); it != domain_ids.end()) {
      d = it->second;
    } else {
      d = static_cast<DomainId>(domain_names.size());
      domain_names.emplace_back(normalized);
      domain_ids.emplace(domain_names.back(), d);
      domain_ips.emplace_back();
    }

    edges.emplace_back(m, d);
    auto& ip_set = domain_ips[d];
    for (const auto ip : ips) {
      if (std::find(ip_set.begin(), ip_set.end(), ip) == ip_set.end()) {
        ip_set.push_back(ip);
      }
    }
  }
};

// Sorts `values` by sorting each [bounds[i], bounds[i+1]) slice in parallel
// and then merging adjacent slices pairwise (log2(slices) parallel rounds).
// bounds must be ascending with front()==0 and back()==values.size().
template <typename T>
void parallel_slice_sort(std::vector<T>& values, const std::vector<std::size_t>& bounds) {
  const std::size_t slices = bounds.size() - 1;
  util::parallel_for(slices, [&](std::size_t s) {
    std::sort(values.begin() + static_cast<std::ptrdiff_t>(bounds[s]),
              values.begin() + static_cast<std::ptrdiff_t>(bounds[s + 1]));
  });
  for (std::size_t width = 1; width < slices; width *= 2) {
    const std::size_t stride = 2 * width;
    const std::size_t pairs = (slices + stride - 1) / stride;
    util::parallel_for(pairs, [&](std::size_t p) {
      const std::size_t left = p * stride;
      const std::size_t mid = left + width;
      if (mid >= slices) {
        return;  // odd tail, nothing to merge this round
      }
      const std::size_t right = std::min(left + stride, slices);
      std::inplace_merge(values.begin() + static_cast<std::ptrdiff_t>(bounds[left]),
                         values.begin() + static_cast<std::ptrdiff_t>(bounds[mid]),
                         values.begin() + static_cast<std::ptrdiff_t>(bounds[right]));
    });
  }
}

// Boundaries of `slices` near-equal contiguous ranges over [0, n).
std::vector<std::size_t> slice_bounds(std::size_t n, std::size_t slices) {
  slices = std::max<std::size_t>(1, std::min(slices, std::max<std::size_t>(1, n)));
  std::vector<std::size_t> bounds(slices + 1, 0);
  const std::size_t per = (n + slices - 1) / slices;
  for (std::size_t i = 1; i <= slices; ++i) {
    bounds[i] = std::min(n, i * per);
  }
  return bounds;
}

}  // namespace

ShardedGraphBuilder::ShardedGraphBuilder(const dns::PublicSuffixList& psl,
                                         std::size_t num_shards)
    : psl_(&psl), num_shards_(num_shards) {}

void ShardedGraphBuilder::add_trace(const dns::DayTrace& trace) {
  day_ = std::max(day_, trace.day);
  if (!trace.records.empty()) {
    segments_.emplace_back(trace.records);
  }
}

MachineDomainGraph ShardedGraphBuilder::build() {
  SEG_SPAN("build");
  timings_ = BuildTimings{};
  skipped_ = 0;

  // Segment prefix offsets give every record a global stream index; shards
  // are contiguous ranges of that index space, so concatenating shard-local
  // first-occurrence orders in shard order reproduces the serial scan.
  std::vector<std::size_t> segment_start(segments_.size() + 1, 0);
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    segment_start[s + 1] = segment_start[s] + segments_[s].size();
  }
  const std::size_t total = segment_start.back();
  timings_.records = total;

  std::size_t shards = num_shards_ != 0 ? num_shards_ : util::parallelism();
  shards = std::max<std::size_t>(1, std::min(shards, std::max<std::size_t>(1, total)));

  // --- Phase 1: parallel shard scan.
  obs::Span scan_span("build/scan");
  std::vector<Shard> shard_state(shards);
  const std::size_t per_shard = (total + shards - 1) / shards;
  util::parallel_for(shards, [&](std::size_t s) {
    auto& shard = shard_state[s];
    const std::size_t lo = std::min(total, s * per_shard);
    const std::size_t hi = std::min(total, lo + per_shard);
    if (lo >= hi) {
      return;
    }
    // Locate the segment containing `lo`, then walk forward.
    std::size_t seg = static_cast<std::size_t>(
        std::upper_bound(segment_start.begin(), segment_start.end(), lo) -
        segment_start.begin()) - 1;
    std::size_t index = lo - segment_start[seg];
    for (std::size_t i = lo; i < hi; ++i) {
      while (index >= segments_[seg].size()) {
        ++seg;
        index = 0;
      }
      const auto& record = segments_[seg][index++];
      shard.add_query(record.machine, record.qname, record.resolved_ips);
    }
  });
  timings_.shard_scan_seconds = scan_span.close();

  // Per-shard load observations feed the imbalance histograms surfaced in
  // the run report and BENCH_pipeline.json's "obs" section.
  {
    auto& registry = obs::Registry::instance();
    auto& edge_hist =
        registry.histogram("seg_build_shard_edges", obs::exponential_bounds(64, 4.0, 12));
    auto& intern_hist = registry.histogram("seg_build_shard_interned_names",
                                           obs::exponential_bounds(64, 4.0, 12));
    for (const auto& shard : shard_state) {
      edge_hist.observe(static_cast<double>(shard.edges.size()));
      intern_hist.observe(
          static_cast<double>(shard.machine_names.size() + shard.domain_names.size()));
    }
  }

  obs::Span merge_span("build/merge");

  // --- Phase 2: merge shard dictionaries into global first-occurrence ids.
  MachineDomainGraph graph;
  graph.day_ = day_;
  std::vector<std::vector<MachineId>> machine_remap(shards);
  std::vector<std::vector<DomainId>> domain_remap(shards);
  std::vector<std::vector<dns::IpV4>> domain_ips;  // by global domain id

  // Size the global dictionaries from the scan-phase shard counts. The sums
  // over-count names shared across shards, but they bound the final sizes,
  // so the merge loop never reallocates the name vectors or rehashes the
  // indexes mid-insert.
  std::size_t shard_machine_total = 0;
  std::size_t shard_domain_total = 0;
  for (const auto& shard : shard_state) {
    shard_machine_total += shard.machine_names.size();
    shard_domain_total += shard.domain_names.size();
  }
  graph.machine_names_.reserve(shard_machine_total);
  graph.machine_index_.reserve(shard_machine_total);
  graph.domain_names_.reserve(shard_domain_total);
  graph.domain_index_.reserve(shard_domain_total);
  domain_ips.reserve(shard_domain_total);

  for (std::size_t s = 0; s < shards; ++s) {
    auto& shard = shard_state[s];
    skipped_ += shard.skipped;

    machine_remap[s].resize(shard.machine_names.size());
    for (std::size_t local = 0; local < shard.machine_names.size(); ++local) {
      auto& name = shard.machine_names[local];
      if (const auto it = graph.machine_index_.find(name); it != graph.machine_index_.end()) {
        machine_remap[s][local] = it->second;
      } else {
        const auto global = static_cast<MachineId>(graph.machine_names_.size());
        graph.machine_names_.push_back(std::move(name));
        graph.machine_index_.emplace(graph.machine_names_.back(), global);
        machine_remap[s][local] = global;
      }
    }

    domain_remap[s].resize(shard.domain_names.size());
    for (std::size_t local = 0; local < shard.domain_names.size(); ++local) {
      auto& name = shard.domain_names[local];
      DomainId global;
      if (const auto it = graph.domain_index_.find(name); it != graph.domain_index_.end()) {
        global = it->second;
      } else {
        global = static_cast<DomainId>(graph.domain_names_.size());
        graph.domain_names_.push_back(std::move(name));
        graph.domain_index_.emplace(graph.domain_names_.back(), global);
        domain_ips.emplace_back();
      }
      domain_remap[s][local] = global;
      // Union the shard's IP set into the global set (kept distinct; the
      // assemble phase sorts, so insertion order does not matter).
      auto& global_ips = domain_ips[global];
      for (const auto ip : shard.domain_ips[local]) {
        if (std::find(global_ips.begin(), global_ips.end(), ip) == global_ips.end()) {
          global_ips.push_back(ip);
        }
      }
    }
    shard.machine_ids.clear();
    shard.domain_ids.clear();
  }
  const std::size_t num_machines = graph.machine_names_.size();
  const std::size_t num_domains = graph.domain_names_.size();

  // Remap shard edge buffers into one global edge array (parallel, disjoint
  // slices), then sort slices in parallel and merge pairwise.
  std::vector<std::size_t> edge_bounds(shards + 1, 0);
  for (std::size_t s = 0; s < shards; ++s) {
    edge_bounds[s + 1] = edge_bounds[s] + shard_state[s].edges.size();
  }
  std::vector<std::pair<MachineId, DomainId>> edges(edge_bounds.back());
  util::parallel_for(shards, [&](std::size_t s) {
    std::size_t out = edge_bounds[s];
    for (const auto& [lm, ld] : shard_state[s].edges) {
      edges[out++] = {machine_remap[s][lm], domain_remap[s][ld]};
    }
    shard_state[s].edges.clear();
    shard_state[s].edges.shrink_to_fit();
  });
  parallel_slice_sort(edges, edge_bounds);
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  timings_.edges = edges.size();
  timings_.merge_seconds = merge_span.close();

  // --- Phase 3: assemble CSR directions, IP sets, e2LD annotations.
  obs::Span assemble_span("build/assemble");
  graph.machine_offsets_.assign(num_machines + 1, 0);
  for (const auto& [m, d] : edges) {
    ++graph.machine_offsets_[m + 1];
  }
  for (std::size_t i = 1; i <= num_machines; ++i) {
    graph.machine_offsets_[i] += graph.machine_offsets_[i - 1];
  }
  graph.machine_targets_.resize(edges.size());
  util::parallel_chunks(edges.size(), 0, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      graph.machine_targets_[i] = edges[i].second;
    }
  });

  // Domain-major direction: sort a swapped copy by (domain, machine) — the
  // same order the serial builder's stable counting sort produces.
  std::vector<std::pair<DomainId, MachineId>> by_domain(edges.size());
  const auto swap_bounds = slice_bounds(edges.size(), util::default_chunk_count(edges.size()));
  util::parallel_chunks(edges.size(), 0, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      by_domain[i] = {edges[i].second, edges[i].first};
    }
  });
  parallel_slice_sort(by_domain, swap_bounds);
  graph.domain_offsets_.assign(num_domains + 1, 0);
  for (const auto& [d, m] : by_domain) {
    ++graph.domain_offsets_[d + 1];
  }
  for (std::size_t i = 1; i <= num_domains; ++i) {
    graph.domain_offsets_[i] += graph.domain_offsets_[i - 1];
  }
  graph.domain_targets_.resize(by_domain.size());
  util::parallel_chunks(by_domain.size(), 0, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      graph.domain_targets_[i] = by_domain[i].second;
    }
  });

  // Resolved-IP CSR: per-domain sort in parallel, then prefix + parallel copy.
  util::parallel_for(num_domains, [&](std::size_t d) { std::sort(domain_ips[d].begin(), domain_ips[d].end()); });
  graph.ip_offsets_.assign(num_domains + 1, 0);
  for (std::size_t d = 0; d < num_domains; ++d) {
    graph.ip_offsets_[d + 1] = graph.ip_offsets_[d] + domain_ips[d].size();
  }
  graph.resolved_ips_.resize(graph.ip_offsets_.back());
  util::parallel_for(num_domains, [&](std::size_t d) {
    std::copy(domain_ips[d].begin(), domain_ips[d].end(),
              graph.resolved_ips_.begin() + static_cast<std::ptrdiff_t>(graph.ip_offsets_[d]));
  });

  // e2LD annotation: PSL lookups run in parallel, then the deterministic
  // two-pass intern assigns e2LD ids in domain-id first-occurrence order,
  // matching the serial builder exactly for every thread count.
  std::vector<std::string> e2lds(num_domains);
  util::parallel_for(num_domains, [&](std::size_t d) {
    e2lds[d] = std::string(psl_->e2ld_or_self(graph.domain_names_[d]));
  });
  auto interned = intern_first_occurrence(std::move(e2lds));
  graph.domain_e2ld_ = std::move(interned.ids);
  graph.e2ld_names_ = std::move(interned.distinct);

  graph.machine_labels_.assign(num_machines, Label::kUnknown);
  graph.domain_labels_.assign(num_domains, Label::kUnknown);
  timings_.assemble_seconds = assemble_span.close();

  obs::Registry::instance().counter("seg_build_records_total").add(total);
  obs::Registry::instance().counter("seg_build_edges_total").add(edges.size());

  segments_.clear();
  day_ = 0;
  return graph;
}

}  // namespace seg::graph
