// segbench: the seeded Segugio benchmark binary.
//
//   segbench setup --workload <name> --seed <n> --dir <data dir>
//   segbench run   --workload <name> --dir <data dir> --seconds <s> --trace <0|1>
//
// segbench/run.py drives both; segbench/README.md describes the workloads
// and metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "bench.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: segbench setup --workload W --seed N --dir D\n"
               "       segbench run --workload W --dir D --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc % 2 != 0) {
    return usage();
  }
  const std::string command = argv[1];
  std::map<std::string, std::string> options;
  for (int i = 2; i + 1 < argc; i += 2) {
    options[argv[i]] = argv[i + 1];
  }
  const auto option = [&](const char* name) -> const std::string& {
    const auto it = options.find(name);
    if (it == options.end()) {
      throw std::invalid_argument(std::string("missing ") + name);
    }
    return it->second;
  };
  try {
    const auto workload = segbench::parse_workload(option("--workload"));
    if (command == "setup") {
      return segbench::run_setup(workload, std::stoull(option("--seed")), option("--dir"));
    }
    if (command == "run") {
      return segbench::run_workload(workload, option("--dir"), std::stod(option("--seconds")),
                                    option("--trace") == "1");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "segbench %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  return usage();
}
