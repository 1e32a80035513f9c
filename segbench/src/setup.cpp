// Setup: everything a workload process loads is generated here from the
// seed, together with the reference score digests the workload checks
// every scored ISP-day against.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "dns/trace_source.h"
#include "dns/wire/dnstap.h"
#include "dns/wire/pcap.h"
#include "sim/world.h"
#include "util/hash.h"
#include "util/parallel.h"

namespace segbench {

namespace {

using seg::dns::Day;
using seg::dns::DayTrace;

// wire-stream replays a quarter-scale population (2 K + 4 K machines, the
// bench world's 8 K + 16 K divided by four): decoding runs at about 2e5
// records/s, so the bench-scale 2.5 M records would leave room for one
// pass per run, and the reference must decode every capture once more.
seg::sim::ScenarioConfig scenario_for(Workload workload, std::uint64_t seed) {
  auto scenario = seg::sim::ScenarioConfig::bench();
  scenario.seed = seed;
  if (workload == Workload::kWireStream) {
    scenario.isp_machines = {2000, 4000};
  } else if (workload == Workload::kOocoreDay) {
    scenario.isp_machines = {kOocoreMachines};
  }
  return scenario;
}

// One ISP-day through the one-shot Segugio flow: prepare, then score with
// `detector` (trained here first when `train` is set).
DayRef score_day(std::size_t isp, const DayTrace& trace, const seg::sim::World& world,
                 const seg::graph::NameSet& blacklist, seg::core::Segugio& detector,
                 bool train) {
  const auto prep = seg::core::Segugio::prepare_graph(trace, world.psl(), blacklist,
                                                      world.whitelist().all(),
                                                      detector.config().prepare_options());
  if (train) {
    detector.train(prep.graph, world.activity(), world.pdns());
  }
  const auto report = detector.classify(prep.graph, world.activity(), world.pdns());
  return {isp, trace.day, trace.records.size(), report.scores.size(),
          score_digest(report.scores)};
}

// Runs jobs [0, count) on up to `workers` threads, rethrowing the first
// failure after every thread has joined.
void run_jobs(std::size_t count, std::size_t workers,
              const std::function<void(std::size_t)>& job) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < std::min(workers, count); ++w) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < count; i = next++) {
        try {
          job(i);
        } catch (...) {
          const std::lock_guard lock(error_mutex);
          if (!error) {
            error = std::current_exception();
          }
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

void write_truth(const std::vector<const DayTrace*>& traces, const seg::sim::World& world,
                 const std::string& path) {
  std::unordered_set<std::string_view> seen;
  seg::graph::NameSet truth;
  for (const auto* trace : traces) {
    for (const auto& record : trace->records) {
      if (seen.insert(record.qname).second && world.is_true_malware(record.qname)) {
        truth.insert(record.qname);
      }
    }
  }
  write_names(truth, path);
}

void write_history(const seg::sim::World& world, const Layout& layout) {
  std::ofstream activity(layout.activity(), std::ios::binary);
  world.activity().save(activity);
  std::ofstream pdns(layout.pdns(), std::ios::binary);
  world.pdns().save(pdns);
  if (!activity || !pdns) {
    throw std::runtime_error("cannot write history stores");
  }
  write_names(world.whitelist().all(), layout.whitelist());
}

seg::graph::NameSet write_blacklist(const seg::sim::World& world, Day day,
                                    const Layout& layout) {
  auto blacklist = world.blacklist().as_of(seg::sim::BlacklistKind::kCommercial, day);
  write_names(blacklist, layout.blacklist(day));
  return blacklist;
}

// Digest over every file setup wrote, in name order: equal digests mean
// equal inputs.
std::uint64_t input_digest(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::uint64_t digest = seg::util::fnv1a64("segbench-inputs");
  std::vector<char> buffer(std::size_t{1} << 20);
  for (const auto& file : files) {
    digest = seg::util::hash_combine(digest, seg::util::fnv1a64(file.filename().string()));
    std::ifstream in(file, std::ios::binary);
    while (in) {
      in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      const auto got = static_cast<std::size_t>(in.gcount());
      std::size_t i = 0;
      for (; i + 8 <= got; i += 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, buffer.data() + i, 8);
        digest = seg::util::hash_combine(digest, word);
      }
      for (; i < got; ++i) {
        digest = seg::util::hash_combine(digest, static_cast<unsigned char>(buffer[i]));
      }
    }
  }
  return digest;
}

// wire-stream: ISP 0's four days as one dnstap capture, ISP 1's as one
// pcap. The reference decodes each capture again with collect_days and
// runs the one-shot flow over the decoded days, with the shared pool and
// the forest at one thread, trained on the first day; the two ISPs are
// scored side by side.
std::vector<DayRef> setup_wire_stream(seg::sim::World& world, const Layout& layout) {
  std::vector<DayTrace> captures(world.isp_count());
  for (std::size_t isp = 0; isp < world.isp_count(); ++isp) {
    captures[isp].day = kFirstDay;
    for (Day day = kFirstDay; day <= kLastDay; ++day) {
      auto records = world.generate_day(isp, day).records;
      captures[isp].records.insert(captures[isp].records.end(),
                                   std::make_move_iterator(records.begin()),
                                   std::make_move_iterator(records.end()));
    }
  }
  seg::dns::wire::write_dnstap_trace(captures[0], layout.capture(0));
  seg::dns::wire::write_pcap_trace(captures[1], layout.capture(1));
  std::map<Day, seg::graph::NameSet> blacklists;
  for (Day day = kFirstDay; day <= kLastDay; ++day) {
    blacklists.emplace(day, write_blacklist(world, day, layout));
  }
  write_truth({&captures[0], &captures[1]}, world, layout.truth());
  write_history(world, layout);
  captures.clear();

  seg::util::set_parallelism(1);
  std::vector<std::vector<DayRef>> per_isp(world.isp_count());
  run_jobs(world.isp_count(), pinned_threads(), [&](std::size_t isp) {
    seg::dns::FileTraceSource source(layout.capture(isp));
    std::vector<DayTrace> days;
    seg::dns::collect_days(source, [&](DayTrace&& day) { days.push_back(std::move(day)); });
    seg::core::Segugio detector(detector_config(1));
    for (std::size_t i = 0; i < days.size(); ++i) {
      per_isp[isp].push_back(score_day(isp, days[i], world, blacklists.at(days[i].day),
                                       detector, /*train=*/i == 0));
    }
  });
  std::vector<DayRef> refs;
  for (const auto& isp : per_isp) {
    refs.insert(refs.end(), isp.begin(), isp.end());
  }
  return refs;
}

// oocore-day: one 64 K-machine ISP-day as a SEGTRC1 binlog. The reference
// is the heap prepare_graph over the same trace at the pinned width.
std::vector<DayRef> setup_oocore_day(seg::sim::World& world, const Layout& layout) {
  const DayTrace trace = world.generate_day(0, kFirstDay);
  seg::dns::write_trace_binary(trace, layout.oocore_trace());
  const auto blacklist = write_blacklist(world, kFirstDay, layout);
  write_truth({&trace}, world, layout.truth());
  write_history(world, layout);

  const std::size_t threads = pinned_threads();
  seg::util::set_parallelism(threads);
  seg::core::Segugio detector(detector_config(threads));
  return {score_day(0, trace, world, blacklist, detector, /*train=*/true)};
}

}  // namespace

int run_setup(Workload workload, std::uint64_t seed, const std::string& dir) {
  std::filesystem::create_directories(dir);
  const Layout layout{dir};
  seg::sim::World world{scenario_for(workload, seed)};
  std::vector<DayRef> refs;
  switch (workload) {
    case Workload::kWireStream: refs = setup_wire_stream(world, layout); break;
    case Workload::kOocoreDay: refs = setup_oocore_day(world, layout); break;
  }
  write_reference(refs, layout.reference());
  std::printf("input_digest %016llx\n", static_cast<unsigned long long>(input_digest(dir)));
  return 0;
}

}  // namespace segbench
