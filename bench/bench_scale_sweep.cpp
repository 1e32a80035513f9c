// Scalability sweep: pipeline cost and peak memory versus ISP population.
//
// Section IV-G's claim is that the pipeline handles ISP scale (millions of
// machines, hundreds of millions of edges) in about an hour of learning
// and minutes of classification. We cannot host millions of machines on
// one core, but we can show the two curves that make the paper-scale
// extrapolation a multiplication instead of a hope:
//
//   - cost: double the machines, roughly double the work (edges/sec flat);
//   - memory: the in-memory points' peak RSS grows with the day they hold,
//     while the out-of-core prepare (graph/oocore.h) stays node-bound — its
//     10x-larger scale point must peak BELOW the largest in-memory point.
//
// The in-memory points (mode "heap", the name the JSON keeps) run the full
// core::Pipeline over a simulated day held as a DayTrace, with the world's
// history stores resident. Their prepare runs the same engine as the
// out-of-core point, from the in-memory day instead of a binlog, so the
// gate compares what each flow keeps resident besides the engine.
//
// Peak RSS (ru_maxrss) is monotone per process, so every scale point runs
// in its own subprocess (this binary re-invoked with --point) and reports
// back through a scratch file. Results land on stdout and in the "scale"
// section of BENCH_pipeline.json next to bench_perf_efficiency's output.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/pipeline.h"
#include "dns/query_log.h"
#include "graph/graph_compressed.h"
#include "graph/oocore.h"
#include "util/obs/process.h"
#include "util/obs/trace.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace seg;

// One scale point's self-reported measurements, exchanged with the child
// process as "key value" lines.
struct PointResult {
  std::size_t machines = 0;
  std::size_t records = 0;
  std::size_t edges = 0;          // graph edges after prepare
  double prepare_seconds = 0.0;   // heap: ingest+train ("learn"); oocore: prepare
  double classify_seconds = 0.0;  // heap only; 0 for the oocore point
  double edges_per_second = 0.0;  // pre-prune edge stream rate through prepare
  std::uint64_t rss_peak_kb = 0;
};

void write_point(const std::string& path, const PointResult& r) {
  std::ofstream out(path);
  out << "machines " << r.machines << "\nrecords " << r.records << "\nedges " << r.edges
      << "\nprepare_seconds " << r.prepare_seconds << "\nclassify_seconds "
      << r.classify_seconds << "\nedges_per_second " << r.edges_per_second
      << "\nrss_peak_kb " << r.rss_peak_kb << "\n";
}

bool read_point(const std::string& path, PointResult& r) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return false;
  }
  std::string key;
  while (in >> key) {
    if (key == "machines") in >> r.machines;
    else if (key == "records") in >> r.records;
    else if (key == "edges") in >> r.edges;
    else if (key == "prepare_seconds") in >> r.prepare_seconds;
    else if (key == "classify_seconds") in >> r.classify_seconds;
    else if (key == "edges_per_second") in >> r.edges_per_second;
    else if (key == "rss_peak_kb") in >> r.rss_peak_kb;
    else { std::string skip; in >> skip; }
  }
  return r.machines != 0;
}

// --- in-memory ("heap") scale point: the full pipeline (ingest, train,
// classify) over a simulated day, exactly the flow ISP deployments run.
int run_heap_point(std::size_t machines, const std::string& out_path) {
  auto scenario = sim::ScenarioConfig::bench();
  scenario.isp_machines = {machines};
  sim::World world{scenario};
  const auto trace = world.generate_day(0, 2);
  const auto config = bench::bench_config();

  obs::Span learn_span("bench/learn");
  core::Pipeline pipeline(world.psl(), world.activity(), world.pdns(), config);
  const auto& blacklist = world.blacklist().as_of(sim::BlacklistKind::kCommercial, 2);
  core::PreparedDay day;
  dns::DayTraceSource source(trace);
  pipeline.ingest_stream(
      source, [&](dns::Day) -> const graph::NameSet& { return blacklist; },
      world.whitelist().all(), [&](core::PreparedDay&& ingested) { day = std::move(ingested); });
  pipeline.train(day);
  const double learn_seconds = learn_span.close();

  obs::Span classify_span("bench/classify");
  (void)pipeline.classify(day);
  const double classify_seconds = classify_span.close();

  PointResult r;
  r.machines = machines;
  r.records = trace.records.size();
  r.edges = day.graph.edge_count();
  r.prepare_seconds = learn_seconds;
  r.classify_seconds = classify_seconds;
  r.edges_per_second = static_cast<double>(day.graph.edge_count()) / learn_seconds;
  r.rss_peak_kb = obs::sample_process().rss_peak_kb;
  write_point(out_path, r);
  return 0;
}

// --- out-of-core scale point: a synthetic day 10x past the largest heap
// point, streamed through prepare_graph_out_of_core. The trace is generated
// record by record (BinaryTraceWriter) and consumed record by record, so
// nothing in the child ever holds the day in memory.
constexpr std::size_t kOocoreDomainPool = 200000;
constexpr std::size_t kOocoreDegree = 64;

int run_oocore_point(std::size_t machines, const std::string& out_path) {
  const std::string trace_path = "scale_sweep_oocore_trace.bin";
  const std::string graph_path = "scale_sweep_oocore.graphc";
  const std::size_t total_records = machines * kOocoreDegree;
  {
    dns::BinaryTraceWriter writer(trace_path, /*day=*/2, total_records);
    std::vector<dns::IpV4> ips(1);
    std::uint64_t state = 0x243f6a8885a308d3ULL;  // fixed seed: deterministic day
    for (std::size_t m = 0; m < machines; ++m) {
      const std::string machine = "host-" + std::to_string(m);
      for (std::size_t k = 0; k < kOocoreDegree; ++k) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const auto j = static_cast<std::size_t>((state >> 33) % kOocoreDomainPool);
        const std::string qname =
            "d" + std::to_string(j) + ".s" + std::to_string(j / 8) + ".com";
        ips[0] = dns::IpV4(static_cast<std::uint32_t>(0x0a000000u + j));
        writer.add(machine, qname, ips);
      }
    }
    writer.finish();
  }

  graph::NameSet blacklist;
  blacklist.insert("d0.s0.com");
  graph::NameSet whitelist;
  whitelist.insert("s1.com");

  obs::Span prepare_span("bench/oocore-prepare");
  const auto result = graph::prepare_graph_out_of_core(
      trace_path, dns::PublicSuffixList::with_default_rules(), blacklist, whitelist,
      graph_path);
  const double prepare_seconds = prepare_span.close();

  PointResult r;
  r.machines = machines;
  r.records = result.records;
  r.edges = result.prune_stats.edges_after;
  r.prepare_seconds = prepare_seconds;
  r.edges_per_second = static_cast<double>(result.prune_stats.edges_before) / prepare_seconds;
  r.rss_peak_kb = obs::sample_process().rss_peak_kb;
  write_point(out_path, r);
  std::remove(trace_path.c_str());
  std::remove(graph_path.c_str());
  return 0;
}

// Splices the "scale" section into BENCH_pipeline.json. The file is owned
// by bench_perf_efficiency (which rewrites it wholesale); this sweep only
// appends/replaces its own section, always the file's last key, creating a
// minimal file when none exists yet.
void merge_scale_section(const std::string& section) {
  const char* path = "BENCH_pipeline.json";
  std::string head;
  {
    std::ifstream in(path);
    if (in.is_open()) {
      std::ostringstream blob;
      blob << in.rdbuf();
      head = std::move(blob).str();
    }
  }
  // Cut an earlier "scale" section (with or without a key before it), else
  // the closing brace; then the comma and whitespace before the cut.
  if (const auto at = head.find("\"scale\":"); at != std::string::npos) {
    head.erase(at);
  } else if (const auto brace = head.rfind('}'); brace != std::string::npos) {
    head.erase(brace);
  } else {
    head = "{";
  }
  while (!head.empty() && (head.back() == '\n' || head.back() == ' ' || head.back() == ',')) {
    head.pop_back();
  }
  head += head == "{" ? "\n" : ",\n";
  std::ofstream out(path);
  out << head << "  \"scale\": " << section << "\n}\n";
  std::printf("\nwrote \"scale\" section of %s\n", path);
}

std::string render_scale_json(const std::vector<std::pair<std::string, PointResult>>& points,
                              bool rss_bounded) {
  std::ostringstream json;
  json << "{\n    \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& [mode, r] = points[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "      {\"mode\": \"%s\", \"machines\": %zu, \"records\": %zu, "
                  "\"edges\": %zu, \"prepare_seconds\": %.6f, \"classify_seconds\": %.6f, "
                  "\"edges_per_sec\": %.1f, \"rss_peak_kb\": %llu}%s\n",
                  mode.c_str(), r.machines, r.records, r.edges, r.prepare_seconds,
                  r.classify_seconds, r.edges_per_second,
                  static_cast<unsigned long long>(r.rss_peak_kb),
                  i + 1 < points.size() ? "," : "");
    json << line;
  }
  json << "    ],\n    \"oocore_rss_below_largest_heap_point\": "
       << (rss_bounded ? "true" : "false") << "\n  }";
  return json.str();
}

}  // namespace

int main(int argc, char** argv) {
  // Child mode: one scale point, then exit (peak RSS stays point-local).
  if (argc == 5 && std::strcmp(argv[1], "--point") == 0) {
    const std::size_t machines = static_cast<std::size_t>(std::atoll(argv[3]));
    if (std::strcmp(argv[2], "heap") == 0) {
      return run_heap_point(machines, argv[4]);
    }
    if (std::strcmp(argv[2], "oocore") == 0) {
      return run_oocore_point(machines, argv[4]);
    }
    std::fprintf(stderr, "unknown point mode '%s'\n", argv[2]);
    return 1;
  }

  bench::print_header("Scalability sweep: cost and peak RSS vs machine population");

  const auto run_child = [&](const char* mode, std::size_t machines,
                             PointResult& result) -> bool {
    const std::string scratch =
        "scale_sweep_point_" + std::string(mode) + "_" + std::to_string(machines) + ".txt";
    const std::string command = std::string("\"") + argv[0] + "\" --point " + mode + " " +
                                std::to_string(machines) + " " + scratch;
    const int status = std::system(command.c_str());
    const bool ok = status == 0 && read_point(scratch, result);
    std::remove(scratch.c_str());
    if (!ok) {
      std::fprintf(stderr, "scale point %s/%zu failed (status %d)\n", mode, machines, status);
    }
    return ok;
  };

  std::vector<std::pair<std::string, PointResult>> points;
  util::TextTable table({"machines", "mode", "records/day", "edges", "prepare s",
                         "classify s", "edges/s", "peak RSS MB"});
  const auto add_row = [&](const char* mode, const PointResult& r) {
    table.add_row({std::to_string(r.machines), mode, util::format_count(r.records),
                   util::format_count(r.edges), util::format_double(r.prepare_seconds, 2),
                   r.classify_seconds > 0.0 ? util::format_double(r.classify_seconds, 3) : "-",
                   util::format_count(static_cast<std::uint64_t>(r.edges_per_second)),
                   std::to_string(r.rss_peak_kb / 1024)});
  };

  PointResult largest_heap;
  for (const std::size_t machines : {2000, 4000, 8000, 16000}) {
    PointResult r;
    if (!run_child("heap", machines, r)) {
      return 1;
    }
    points.emplace_back("heap", r);
    add_row("heap", r);
    largest_heap = r;
  }

  // The out-of-core point: 10x the largest heap population. Its peak RSS
  // must undercut the heap pipeline's largest point — that bound, not the
  // wall clock, is what makes 10^6-10^7 machines per box plausible.
  PointResult oocore;
  const bool oocore_ok = run_child("oocore", 10 * largest_heap.machines, oocore);
  if (oocore_ok) {
    points.emplace_back("oocore", oocore);
    add_row("oocore", oocore);
  }

  std::printf("%s", table.render().c_str());
  std::printf("\nexpected shape: near-linear prepare cost in machines/edges, classification\n"
              "a small fraction of learning (the paper's ~20x); heap RSS grows with the\n"
              "day while the out-of-core prepare stays node-bound.\n");

  bool rss_bounded = false;
  if (oocore_ok) {
    rss_bounded = oocore.rss_peak_kb < largest_heap.rss_peak_kb;
    std::printf("\nout-of-core %zu machines peaked at %llu MB vs heap %zu machines at %llu MB"
                " — bound %s\n",
                oocore.machines,
                static_cast<unsigned long long>(oocore.rss_peak_kb / 1024),
                largest_heap.machines,
                static_cast<unsigned long long>(largest_heap.rss_peak_kb / 1024),
                rss_bounded ? "holds" : "VIOLATED");
  }

  merge_scale_section(render_scale_json(points, rss_bounded));
  return oocore_ok && rss_bounded ? 0 : 1;
}
