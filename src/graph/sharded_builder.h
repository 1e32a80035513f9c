// Sharded, thread-parallel construction of the machine-domain graph.
//
// The serial GraphBuilder walks a day of traffic one record at a time;
// at ISP scale (hundreds of millions of machine–domain edges per day,
// Section IV-G) that single core is the pipeline's tallest pole. The
// sharded builder splits the record stream into N contiguous shards, lets
// each worker intern names and buffer edges locally, then merges the
// shard dictionaries and assembles the CSR adjacency in parallel.
//
// Determinism contract (see docs/performance.md): the built graph is
// bit-identical to serial GraphBuilder output for every shard/thread
// count. Global machine/domain ids follow first-occurrence order in the
// record stream — shards cover contiguous record ranges and are merged in
// shard order, which reproduces exactly the serial first-seen order.
// Edges are globally sorted and deduplicated, resolved-IP sets are sorted,
// and e2LDs are interned in domain-id order via the deterministic two-pass
// intern (graph/intern.h), all matching the serial builder's layout.
// tests/graph/sharded_builder_test.cpp asserts byte equality of the
// serialized graphs.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dns/public_suffix_list.h"
#include "dns/query_log.h"
#include "graph/graph.h"

namespace seg::graph {

/// Wall-clock breakdown of the last ShardedGraphBuilder::build() call.
/// A view over the builder's obs spans ("build/scan", "build/merge",
/// "build/assemble") — not a second timing mechanism.
struct BuildTimings {
  double shard_scan_seconds = 0.0;  ///< parallel per-shard intern + buffer
  double merge_seconds = 0.0;       ///< dictionary merge + edge sort/dedup
  double assemble_seconds = 0.0;    ///< CSR fill, IP sets, e2LD annotation
  std::size_t records = 0;          ///< input records consumed
  std::size_t edges = 0;            ///< distinct edges after dedup

  double total_seconds() const {
    return shard_scan_seconds + merge_seconds + assemble_seconds;
  }
};

/// Drop-in parallel replacement for GraphBuilder. Traces added via
/// add_trace are only referenced, not copied — they must outlive build().
class ShardedGraphBuilder {
 public:
  /// `psl` must outlive build(). `num_shards` controls the partitioning
  /// width; 0 means util::parallelism(). The result does not depend on it.
  explicit ShardedGraphBuilder(const dns::PublicSuffixList& psl, std::size_t num_shards = 0);

  /// Registers a day trace for the next build(). The graph's day becomes
  /// the latest day added, as with GraphBuilder::add_trace.
  void add_trace(const dns::DayTrace& trace);

  /// Builds the graph from every registered trace, in registration order.
  /// The builder is left empty afterwards (timings and skip count remain).
  MachineDomainGraph build();

  /// Number of records skipped by the last build() because the queried
  /// name was invalid (or the machine identifier empty).
  std::size_t skipped_records() const { return skipped_; }

  /// Per-stage wall time of the last build().
  const BuildTimings& last_timings() const { return timings_; }

 private:
  const dns::PublicSuffixList* psl_;
  std::size_t num_shards_;
  dns::Day day_ = 0;
  std::vector<std::span<const dns::QueryRecord>> segments_;
  std::size_t skipped_ = 0;
  BuildTimings timings_;
};

}  // namespace seg::graph
