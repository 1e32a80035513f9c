// seg-lint: project-specific static checker for the Segugio determinism,
// race-freedom, layering, and ODR contracts. See docs/static-analysis.md.
//
// Usage:
//   seg_lint [--error-exit] [--format text|json|sarif] [--rule R-XXX]...
//            [--layers FILE] [--diff-base REV] PATH...
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
// nothing. --diff-base REV lints the same roots inside a `git archive REV`
// scratch tree and subtracts those findings (line-free keys; see
// report.h), so CI fails only on findings *introduced* by the change under
// test. With --error-exit the process exits 1 when any finding survives.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "util/lint/analysis_cache.h"
#include "util/lint/linter.h"
#include "util/lint/report.h"

namespace {

namespace fs = std::filesystem;

void print_usage() {
  std::fprintf(
      stderr,
      "usage: seg_lint [--error-exit] [--format text|json|sarif]\n"
      "                [--rule R-XXX]... [--layers FILE] [--diff-base REV]\n"
      "                PATH...\n"
      "rules: R-DET1 R-DET3 R-RACE1 R-RACE2 R-API1 R-HDR1 R-HDR2 R-ARCH1\n"
      "       R-ARCH2 R-ODR1 R-LIFE1 R-OBS1 R-MEM1 R-WIRE1 R-EXC1 R-SUP1\n"
      "mark deprecated entry points with // seg-deprecated above the "
      "declaration\n"
      "suppress one site: // seg-lint: allow(R-XXX)   (same or next line)\n"
      "suppress a file:   // seg-lint: allow-file(R-XXX)\n"
      "suppress a category: // seg-lint: allow(arch)  (covers R-ARCH1/2)\n");
}

std::string shell_quote(const std::string& text) {
  std::string quoted = "'";
  for (const char c : text) {
    if (c == '\'') {
      quoted += "'\\''";
    } else {
      quoted += c;
    }
  }
  quoted += "'";
  return quoted;
}

// First line of `command`'s stdout, or empty on failure.
std::string run_capture(const std::string& command) {
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return {};
  }
  char buffer[4096];
  std::string line;
  if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    line = buffer;
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
  }
  const int status = pclose(pipe);
  return status == 0 ? line : std::string{};
}

// Lints the same roots inside a `git archive <rev>` scratch checkout and
// returns the finding keys of everything that already existed there.
// Returns false (with a message on stderr) when the rev cannot be exported.
bool collect_diff_base_keys(const std::string& rev,
                            const std::vector<std::string>& roots,
                            const seg::lint::LintOptions& options,
                            seg::lint::AnalysisCache& cache,
                            std::vector<std::string>& keys) {
  const std::string repo_root = run_capture("git rev-parse --show-toplevel 2>/dev/null");
  if (repo_root.empty()) {
    std::fprintf(stderr, "seg_lint: --diff-base requires running inside a git repo\n");
    return false;
  }

  char tmpl[] = "/tmp/seg-lint-diff-XXXXXX";
  char* tmp = mkdtemp(tmpl);
  if (tmp == nullptr) {
    std::fprintf(stderr, "seg_lint: cannot create scratch directory\n");
    return false;
  }
  const std::string scratch = tmp;

  const std::string extract = "git -C " + shell_quote(repo_root) + " archive " +
                              shell_quote(rev) + " 2>/dev/null | tar -x -C " +
                              shell_quote(scratch);
  if (std::system(extract.c_str()) != 0) {
    std::fprintf(stderr, "seg_lint: git archive %s failed\n", rev.c_str());
    std::error_code ec;
    fs::remove_all(scratch, ec);
    return false;
  }

  // Map each lint root into the scratch tree: absolute roots are
  // re-anchored via their repo-relative suffix, relative roots reattach
  // directly. Roots absent at the base rev simply contribute nothing.
  std::vector<std::string> old_roots;
  for (const auto& root : roots) {
    std::error_code ec;
    fs::path rel = fs::path(root);
    if (rel.is_absolute()) {
      rel = fs::relative(rel, repo_root, ec);
      if (ec || rel.empty() || rel.native().rfind("..", 0) == 0) {
        rel = fs::path(seg::lint::normalize_path(root));
      }
    }
    const fs::path mapped = fs::path(scratch) / rel;
    if (fs::exists(mapped, ec)) {
      old_roots.push_back(mapped.string());
    }
  }

  seg::lint::LintOptions old_options = options;
  old_options.include_roots = old_roots;
  if (!options.layers_file.empty()) {
    // Prefer the base rev's own layering spec; a base that predates
    // layers.toml is linted without R-ARCH1 (every violation is "new").
    const fs::path old_layers =
        fs::path(scratch) / seg::lint::normalize_path(options.layers_file);
    std::error_code ec;
    old_options.layers_file =
        fs::is_regular_file(old_layers, ec) ? old_layers.string() : std::string{};
  }

  const auto old_sources = seg::lint::collect_sources(old_roots);
  const auto old_findings = seg::lint::lint_project(old_sources, old_options, &cache);
  for (const auto& finding : old_findings) {
    keys.push_back(seg::lint::finding_key(finding));
  }

  std::error_code ec;
  fs::remove_all(scratch, ec);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  seg::lint::LintOptions options;
  std::vector<std::string> roots;
  std::string format = "text";
  std::string diff_base;
  bool error_exit = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--error-exit") {
      error_exit = true;
    } else if (arg == "--rule" && i + 1 < argc) {
      options.only_rules.emplace_back(argv[++i]);
    } else if (arg == "--layers" && i + 1 < argc) {
      options.layers_file = argv[++i];
    } else if (arg == "--diff-base" && i + 1 < argc) {
      diff_base = argv[++i];
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

  // One analysis cache spans the working-tree lint and the --diff-base
  // lint: files byte-identical between the two reuse their symbol-index
  // scan and per-file rule findings (analysis_cache.h).
  seg::lint::AnalysisCache cache;
  auto findings = seg::lint::lint_project(sources, options, &cache);
  if (!findings.empty() && findings.front().rule == "CONFIG") {
    std::fprintf(stderr, "seg_lint: %s: %s\n", findings.front().file.c_str(),
                 findings.front().message.c_str());
    return 2;
  }

  if (!diff_base.empty()) {
    std::vector<std::string> base_keys;
    if (!collect_diff_base_keys(diff_base, roots, options, cache, base_keys)) {
      return 2;
    }
    findings = seg::lint::subtract_baseline(std::move(findings), base_keys);
    const auto stats = cache.stats();
    std::fprintf(stderr,
                 "seg_lint: diff-base cache: %zu/%zu symbol scans reused, "
                 "%zu/%zu rule passes reused\n",
                 stats.symbol_hits, stats.symbol_hits + stats.symbol_misses,
                 stats.rule_hits, stats.rule_hits + stats.rule_misses);
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
