#include <sched.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "util/hash.h"

namespace segbench {

std::string_view workload_name(Workload workload) {
  switch (workload) {
    case Workload::kWireStream: return "wire-stream";
    case Workload::kOocoreDay: return "oocore-day";
  }
  return "?";
}

Workload parse_workload(std::string_view name) {
  for (const auto w : {Workload::kWireStream, Workload::kOocoreDay}) {
    if (workload_name(w) == name) {
      return w;
    }
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t pinned_threads() {
  const std::size_t cpus = usable_cpus();
  return cpus > 1 ? cpus - 1 : 1;
}

seg::core::SegugioConfig detector_config(std::size_t threads) {
  seg::core::SegugioConfig config;
  config.forest.num_trees = 100;
  config.forest.num_threads = threads;
  return config;
}

std::uint64_t score_digest(const std::vector<seg::core::DomainScore>& scores) {
  std::uint64_t digest = seg::util::fnv1a64("segbench-scores");
  for (const auto& scored : scores) {
    digest = seg::util::hash_combine(digest, seg::util::fnv1a64(scored.name));
    digest = seg::util::hash_combine(digest, std::bit_cast<std::uint64_t>(scored.score));
  }
  return digest;
}

std::string Layout::path(std::string_view name) const {
  return dir + "/" + std::string(name);
}

std::string Layout::capture(std::size_t isp) const {
  return path(isp == 0 ? "isp0.dnstap" : "isp" + std::to_string(isp) + ".pcap");
}

std::string Layout::blacklist(seg::dns::Day day) const {
  return path("blacklist-day" + std::to_string(day) + ".txt");
}

void write_names(const seg::graph::NameSet& names, const std::string& path) {
  std::vector<std::string> sorted(names.begin(), names.end());
  std::sort(sorted.begin(), sorted.end());
  std::ofstream out(path);
  for (const auto& name : sorted) {
    out << name << '\n';
  }
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

seg::graph::NameSet read_names(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  seg::graph::NameSet names;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      names.insert(line);
    }
  }
  return names;
}

void write_reference(const std::vector<DayRef>& days, const std::string& path) {
  std::ofstream out(path);
  for (const auto& d : days) {
    out << d.isp << ' ' << d.day << ' ' << d.records << ' ' << d.scored << ' ' << std::hex
        << d.digest << std::dec << '\n';
  }
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

std::vector<DayRef> read_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::vector<DayRef> days;
  DayRef d;
  while (in >> d.isp >> d.day >> d.records >> d.scored >> std::hex >> d.digest >> std::dec) {
    days.push_back(d);
  }
  if (days.empty()) {
    throw std::runtime_error("empty reference " + path);
  }
  return days;
}

std::map<seg::dns::Day, seg::graph::NameSet> read_blacklists(const Layout& layout) {
  std::map<seg::dns::Day, seg::graph::NameSet> lists;
  for (seg::dns::Day day = kFirstDay; day <= kLastDay; ++day) {
    lists.emplace(day, read_names(layout.blacklist(day)));
  }
  return lists;
}

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace segbench
