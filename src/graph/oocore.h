// Out-of-core graph preparation: trace file -> pruned packed graphc file.
//
// prepare_graph_out_of_core() runs the learning-side prepare pipeline
// (build + label + prune R1-R4) without ever materializing the behavior
// graph in memory. Node-level state — name dictionaries, labels, degrees,
// keep masks — stays resident (O(machines + domains + e2LDs)); the edge
// and IP-pair streams, which dominate at ISP scale, are spilled to
// sorted/deduplicated delta+varint compressed runs and re-read through
// k-way merges. The trace is scanned in batches of kOutOfCoreBatchRecords
// records. Peak RSS is O(nodes + chunk_records + batch), independent of
// the edge count, which is what lets one box prepare days of 10^6-10^7
// machines (the bench_scale_sweep "scale" section records the bound).
//
// Everything after the trace read runs on the shared pool
// (util/parallel.h):
//   - the scan resolves each batch in parallel phases while, when the pool
//     has more than one worker, a reader thread fills the next batch (two
//     batch arenas, recycled);
//   - the spill sorts run as fixed slices;
//   - every merge pass — labels and degrees, prune masks, CSR shape, IP
//     counts, and the machine_targets, domain_targets and resolved-IP
//     writes — runs as fixed node-aligned key ranges. Spill runs are coded
//     in restart blocks with a block index, so a range's merge starts
//     each run at the block holding its first key; each range writes its
//     slice of a section at the offset the CSR prefix sums fix.
// How the work is split depends only on the input, so the result — the
// output bytes, skipped records, spill runs and bytes, PruneStats — is
// identical for every pool size, and a one-worker pool runs the whole
// prepare on the calling thread.
//
// The input is read through dns::FileTraceSource, so any trace format it
// sniffs (sim TSV, SEGTRC1 binlog, dnstap, pcap) is accepted; a trace
// that spans more than one day is a util::ParseError. The output is a
// packed `segf1 graphc 1` file (graph_compressed.h), byte-identical to
//
//   save_graph_compressed(Segugio::prepare_graph(trace, ...).graph, out)
//
// for every chunk size and pool size (tests/graph/oocore_test.cpp asserts
// this), so the file can be mmap-served to classification directly via
// map_graph().
//
// Scope: the streaming prepare supports the default prepare pipeline only —
// no prober filtering; callers needing it stay on the in-memory
// Segugio::prepare_graph.
#pragma once

#include <cstdint>
#include <string>

#include "dns/public_suffix_list.h"
#include "graph/labeling.h"
#include "graph/pruning.h"

namespace seg::graph {

/// Records the scan reads and resolves per batch. A constant: the scan's
/// work split depends on it and on the input, never on the pool size.
inline constexpr std::size_t kOutOfCoreBatchRecords = std::size_t{1} << 15;

struct OutOfCoreConfig {
  PruningConfig pruning;
  /// Edge/IP pairs buffered before each sort + spill. The resident working
  /// set scales with this (8 bytes per buffered pair) plus the node
  /// dictionaries.
  std::size_t chunk_records = std::size_t{1} << 20;
  /// Directory for spill segment files; empty means next to `out_path`.
  std::string spill_dir;
};

struct OutOfCoreResult {
  PruneStats prune_stats;
  std::size_t records = 0;        ///< trace records consumed
  std::size_t skipped_records = 0;///< invalid qname / empty machine
  std::size_t spill_segments = 0; ///< sorted runs written to the edge and IP spills
  std::uint64_t spill_bytes = 0;  ///< compressed spill footprint
};

/// Streams `trace_path` (one day, in any format FileTraceSource sniffs)
/// into a labeled, pruned, packed graphc file at `out_path`. Spill files
/// are removed on success. Throws util::ParseError on malformed input and
/// on a record whose day differs from the first record's.
OutOfCoreResult prepare_graph_out_of_core(const std::string& trace_path,
                                          const dns::PublicSuffixList& psl,
                                          const NameSet& cc_blacklist,
                                          const NameSet& e2ld_whitelist,
                                          const std::string& out_path,
                                          const OutOfCoreConfig& config = {});

}  // namespace seg::graph
