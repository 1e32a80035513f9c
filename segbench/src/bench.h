// Shared pieces of the seeded Segugio benchmark (see segbench/README.md).
//
// The benchmark has two halves that run as separate processes:
//
//   setup     builds the simulated world from the seed, writes every input
//             a workload process loads (captures or binlog, history stores,
//             label sets, ground truth) and the reference score digests;
//   workload  loads only those files — what a deployment holds — and
//             replays them through the program for a fixed time.
//
// Both halves agree on the file layout and the settings below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/segugio.h"
#include "dns/types.h"
#include "graph/labeling.h"

namespace segbench {

enum class Workload { kWireStream, kOocoreDay };

/// "wire-stream", "oocore-day"; parse throws on other names.
std::string_view workload_name(Workload workload);
Workload parse_workload(std::string_view name);

/// The observation days wire-stream replays (the bench world's days
/// 10-13); oocore-day uses the first of them.
inline constexpr seg::dns::Day kFirstDay = 10;
inline constexpr seg::dns::Day kLastDay = 13;

/// Records per producer micro-batch in wire-stream (IngestOptions default);
/// the traced decode wrapper samples the clock once per batch boundary.
inline constexpr std::size_t kIngestBatch = 1024;

/// Machines of the single ISP in oocore-day: 4x bench's largest ISP.
inline constexpr std::size_t kOocoreMachines = 64000;

/// CPUs this process may run on (sched affinity, else hardware_concurrency).
std::size_t usable_cpus();

/// The one explicit worker count used for the shared pool and the forest.
/// One CPU is left for wire-stream's ingest producer thread, so busy
/// threads never exceed usable_cpus().
std::size_t pinned_threads();

/// Detector configuration for every workload and reference: the bench
/// config (100-tree stratified forest) with the forest pinned to `threads`.
seg::core::SegugioConfig detector_config(std::size_t threads);

/// Digest of one scored ISP-day: every scored name and the exact bits of
/// its score, in report order.
std::uint64_t score_digest(const std::vector<seg::core::DomainScore>& scores);

/// One ISP-day as the reference records it.
struct DayRef {
  std::size_t isp = 0;
  seg::dns::Day day = 0;
  std::uint64_t records = 0;
  std::uint64_t scored = 0;
  std::uint64_t digest = 0;
};

/// Everything setup hands a workload process, by file name inside `dir`.
struct Layout {
  std::string dir;

  std::string path(std::string_view name) const;
  std::string capture(std::size_t isp) const;  ///< wire-stream captures
  std::string blacklist(seg::dns::Day day) const;
  std::string whitelist() const { return path("whitelist.txt"); }
  std::string truth() const { return path("truth.txt"); }
  std::string activity() const { return path("activity.store"); }
  std::string pdns() const { return path("pdns.store"); }
  std::string reference() const { return path("reference.txt"); }
  std::string oocore_trace() const { return path("day.bin"); }
  std::string oocore_graph() const { return path("day.graphc"); }
};

void write_names(const seg::graph::NameSet& names, const std::string& path);
seg::graph::NameSet read_names(const std::string& path);

void write_reference(const std::vector<DayRef>& days, const std::string& path);
std::vector<DayRef> read_reference(const std::string& path);

/// The commercial blacklists of every replayed day, keyed by day.
std::map<seg::dns::Day, seg::graph::NameSet> read_blacklists(const Layout& layout);

/// Seconds on the steady clock (the benchmark's only clock).
double now_seconds();

/// Writes the input files of `workload` for `seed` into `dir` and prints
/// `input_digest <hex>` over them. Returns the process exit code.
int run_setup(Workload workload, std::uint64_t seed, const std::string& dir);

/// Replays the inputs in `dir` for `seconds` and prints the result JSON as
/// the last stdout line; `traced` selects the per-layer metrics.
int run_workload(Workload workload, const std::string& dir, double seconds, bool traced);

}  // namespace segbench
