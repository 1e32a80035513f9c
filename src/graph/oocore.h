// The graph-preparation engine: one day of records -> a labeled, pruned
// packed graphc file.
//
// One engine is the only build + label + prune path in production. It has
// two feeders:
//   - prepare_graph_out_of_core() reads a dns::TraceSource: a trace file
//     of any format dns::FileTraceSource sniffs (sim TSV, SEGTRC1 binlog,
//     dnstap, pcap) for the out-of-core flow, or a borrowed DayTrace for
//     core::Segugio::prepare_graph, through a reader thread of its own.
//   - StreamingPrepare takes the dns::RecordArenas a stream hands it
//     (core::Pipeline's streamed days) and scans each batch as soon as the
//     arenas fill it, so when the day ends only its last partial batch and
//     the passes after the scan are left.
// Both feeders scan batches of kScanBatchRecords records.
// Either way the engine never materializes the behavior graph in memory.
// Node-level state — name dictionaries, labels, degrees, keep masks —
// stays resident (O(machines + domains + e2LDs)), each name's bytes once,
// in one id-ordered name table per kind that the scan's flat dictionaries
// index (docs/graph-format.md); the edge and IP-pair
// streams, which dominate at ISP scale, are spilled to sorted/deduplicated
// delta+varint compressed runs and re-read through k-way merges. Peak RSS
// is O(nodes + chunk_records + batch), independent of the edge count,
// which is what lets one box prepare days of 10^6-10^7 machines (the
// bench_scale_sweep "scale" section records the bound).
//
// Everything after the record read runs on the shared pool
// (util/parallel.h):
//   - the scan resolves each batch in parallel phases while, in the trace
//     feeder, a reader thread fills the next batch when the pool has more
//     than one worker (two batch arenas, recycled), and in the streaming
//     feeder the stream's producer decodes ahead;
//   - the spill sorts run as fixed slices;
//   - every merge pass — labels and degrees, prune masks, CSR shape, IP
//     counts, and the machine_targets, domain_targets and resolved-IP
//     writes — runs as fixed node-aligned key ranges. Spill runs are coded
//     in restart blocks with a block index, so a range's merge starts
//     each run at the block holding its first key; each range writes its
//     slice of a section at the offset the CSR prefix sums fix.
// How the work is split depends only on the input, so the result — the
// output bytes, skipped records, spill runs and bytes, PruneStats — is
// identical for every pool size and for both feeders, and a one-worker
// pool runs the whole prepare on the calling thread.
//
// The optional prober filter (graph/prober_filter.h, Section VI) is one
// more per-machine mask in the labels pass: the first edge merge yields
// each machine's distinct-domain degree and its count of malware-labelled
// domains, which is all detect_probers() reads. From then on a prober is
// as absent as remove_probers() makes it — out of machines_before and
// edges_before, out of theta_d's degree percentile and theta_m's
// population, and out of every domain degree and e2LD machine count —
// while every domain stays until R3/R4.
//
// The output is a packed `segf1 graphc 1` file (graph_compressed.h),
// byte-identical to what the serial reference produces —
//
//   GraphBuilder -> apply_labels -> [remove_probers] -> prune
//   -> save_graph_compressed
//
// — for every chunk size and pool size (tests/graph/oocore_test.cpp and
// tests/core/segugio_test.cpp assert this), so the file can be mmap-served
// to classification directly via map_graph(). It is written under a
// unique temporary name in `out_path`'s directory and renamed over
// `out_path` once complete, so a failed or crashed prepare leaves the
// previous file in place (no fsync: this guards against a process crash,
// not against power loss).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "dns/public_suffix_list.h"
#include "dns/query_log.h"
#include "dns/record_arena.h"
#include "dns/trace_source.h"
#include "graph/labeling.h"
#include "graph/prober_filter.h"
#include "graph/pruning.h"

namespace seg::graph {

/// Records the scan resolves per batch, for both feeders. A constant: the
/// scan's work split depends on it and on the input, never on the pool
/// size, a stream's arena size or thread timing. At most the records of
/// core::Pipeline's queue (util::kDefaultQueueCapacity arenas of 1024
/// records by default), so the queue can refill while one batch resolves.
inline constexpr std::size_t kScanBatchRecords = std::size_t{1} << 14;

/// Options of a prepare, for every entry point (core::Segugio::prepare_graph
/// takes them too).
struct OutOfCoreConfig {
  PruningConfig pruning;
  /// When set, "probing" clients (machines querying implausibly many
  /// blacklisted domains, Section VI) are removed before pruning.
  std::optional<ProberFilterConfig> prober_filter;
  /// Edge/IP pairs buffered before each sort + spill. The resident working
  /// set scales with this (8 bytes per buffered pair) plus the node
  /// dictionaries.
  std::size_t chunk_records = std::size_t{1} << 20;
};

struct OutOfCoreResult {
  PruneStats prune_stats;
  std::size_t records = 0;        ///< records scanned, skipped ones included
  std::size_t skipped_records = 0;///< invalid qname / empty machine
  std::size_t edges = 0;          ///< distinct edges before the prober filter and pruning
  std::size_t spill_segments = 0; ///< sorted runs written to the edge and IP spills
  std::uint64_t spill_bytes = 0;  ///< compressed spill footprint
  // Wall clock of the engine's spans (util/obs/trace.h), in seconds.
  double scan_seconds = 0.0;    ///< "oocore/scan" (summed over StreamingPrepare's batches)
  double label_seconds = 0.0;   ///< "oocore/labels"
  double prober_seconds = 0.0;  ///< "oocore/probers"; 0 without a prober filter
};

/// Streams `trace_path` (one day, in any format FileTraceSource sniffs)
/// into a labeled, pruned, packed graphc file at `out_path`. Spill files
/// and the temporary output are removed on success and on failure. Throws
/// util::ParseError on malformed input and on a record whose day differs
/// from the first record's.
OutOfCoreResult prepare_graph_out_of_core(const std::string& trace_path,
                                          const dns::PublicSuffixList& psl,
                                          const NameSet& cc_blacklist,
                                          const NameSet& e2ld_whitelist,
                                          const std::string& out_path,
                                          const OutOfCoreConfig& config = {});

/// As above, reading the records of `source`, which the engine borrows
/// for the call.
OutOfCoreResult prepare_graph_out_of_core(dns::TraceSource& source,
                                          const dns::PublicSuffixList& psl,
                                          const NameSet& cc_blacklist,
                                          const NameSet& e2ld_whitelist,
                                          const std::string& out_path,
                                          const OutOfCoreConfig& config = {});

/// As above for one in-memory day: every record must carry `trace.day`
/// (util::ParseError otherwise), and the graph's day is `trace.day`, also
/// when the trace is empty.
OutOfCoreResult prepare_graph_out_of_core(const dns::DayTrace& trace,
                                          const dns::PublicSuffixList& psl,
                                          const NameSet& cc_blacklist,
                                          const NameSet& e2ld_whitelist,
                                          const std::string& out_path,
                                          const OutOfCoreConfig& config = {});

/// A prepare of one day fed record arenas as they arrive. add() scans each
/// scan batch of kScanBatchRecords records as soon as the arenas
/// complete it, each batch in an "oocore/scan" span of its own; finish()
/// scans the last partial batch, in one more such span with the close of
/// the spills, and runs the passes after the scan. The graph is the one
/// prepare_graph_out_of_core writes over the same records, also when no
/// record arrives. The temporary output and the spills sit next to
/// `out_path` from construction until finish() or destruction, which
/// removes them. Top-level calls only (the scan uses the shared pool).
class StreamingPrepare {
 public:
  StreamingPrepare(dns::Day day, const dns::PublicSuffixList& psl, std::string out_path,
                   const OutOfCoreConfig& config = {});
  ~StreamingPrepare();
  StreamingPrepare(const StreamingPrepare&) = delete;
  StreamingPrepare& operator=(const StreamingPrepare&) = delete;

  /// Appends the records of `arena`, whose day must be the prepare's, and
  /// scans every batch they complete. The arena is not kept.
  void add(const dns::RecordArena& arena);

  /// Writes the labeled, pruned graph to `out_path`. Call once.
  OutOfCoreResult finish(const NameSet& cc_blacklist, const NameSet& e2ld_whitelist);

  /// Seconds of the "oocore/scan" spans so far.
  double scan_seconds() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace seg::graph
