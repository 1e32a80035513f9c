// seg-lint: project-specific static checker for the Segugio determinism,
// race-freedom, layering, and ODR contracts. See docs/static-analysis.md.
//
// Usage:
//   seg_lint [--error-exit] [--format text|json|sarif] [--rule R-XXX]...
//            [--layers FILE] PATH...
//
// PATH arguments are files or directories (directories are walked for
// .cpp/.h). Every run is whole-program: every file is lexed once into the
// project model, per-file rules run with the cross-TU symbol index backing
// R-API1, the include graph feeds R-ARCH2 (cycles) and R-ODR1, and the call
// graph feeds R-DET3 and R-EXC1. R-ARCH1 layering activates when --layers
// names a layers.toml.
//
// A finding is accepted only by a suppression directive at its site (the
// usage text shows the forms); R-SUP1 reports a directive that covers
// nothing. With --error-exit the process exits 1 on any finding.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "util/lint/linter.h"
#include "util/lint/report.h"

namespace {

void print_usage() {
  std::fprintf(
      stderr,
      "usage: seg_lint [--error-exit] [--format text|json|sarif]\n"
      "                [--rule R-XXX]... [--layers FILE] PATH...\n"
      "rules: R-DET1 R-DET3 R-RACE1 R-RACE2 R-API1 R-HDR1 R-HDR2 R-ARCH1\n"
      "       R-ARCH2 R-ODR1 R-LIFE1 R-OBS1 R-MEM1 R-WIRE1 R-EXC1 R-SUP1\n"
      "mark deprecated entry points with // seg-deprecated above the "
      "declaration\n"
      "suppress one site: // seg-lint: allow(R-XXX)   (same or next line)\n"
      "suppress a file:   // seg-lint: allow-file(R-XXX)\n"
      "suppress a category: // seg-lint: allow(arch)  (covers R-ARCH1/2)\n");
}

}  // namespace

int main(int argc, char** argv) {
  seg::lint::LintOptions options;
  std::vector<std::string> roots;
  std::string format = "text";
  bool error_exit = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--error-exit") {
      error_exit = true;
    } else if (arg == "--rule" && i + 1 < argc) {
      options.only_rules.emplace_back(argv[++i]);
    } else if (arg == "--layers" && i + 1 < argc) {
      options.layers_file = argv[++i];
    } else if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(std::strlen("--format="));
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "seg_lint: unknown option '%s'\n", arg.c_str());
      print_usage();
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
    print_usage();
    return 2;
  }
  if (format != "text" && format != "json" && format != "sarif") {
    std::fprintf(stderr, "seg_lint: unknown format '%s'\n", format.c_str());
    return 2;
  }
  // Quoted includes in this project are rooted at src/; let every linted
  // root double as an include root so `seg_lint src tools bench` resolves
  // them no matter which subset is passed.
  options.include_roots = roots;

  const auto sources = seg::lint::collect_sources(roots);
  if (sources.empty()) {
    std::fprintf(stderr, "seg_lint: no .cpp/.h files under the given paths\n");
    return 2;
  }

  const auto findings = seg::lint::lint_project(sources, options);
  if (!findings.empty() && findings.front().rule == "CONFIG") {
    std::fprintf(stderr, "seg_lint: %s: %s\n", findings.front().file.c_str(),
                 findings.front().message.c_str());
    return 2;
  }

  if (format == "json") {
    seg::lint::write_json(std::cout, findings);
  } else if (format == "sarif") {
    seg::lint::write_sarif(std::cout, findings);
  } else {
    seg::lint::write_text(std::cout, findings);
    if (!findings.empty()) {
      std::printf("seg_lint: %zu finding%s in %zu files scanned\n", findings.size(),
                  findings.size() == 1 ? "" : "s", sources.size());
    }
  }
  return error_exit && !findings.empty() ? 1 : 0;
}
