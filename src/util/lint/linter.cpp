#include "util/lint/linter.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/lint/analysis_cache.h"
#include "util/lint/call_graph.h"
#include "util/lint/dataflow.h"
#include "util/lint/project_model.h"
#include "util/lint/symbol_index.h"
#include "util/parallel.h"

namespace seg::lint {

namespace fs = std::filesystem;

namespace {

// The checker's own sources mention suppression directives in documentation
// comments, which the lexer cannot tell from real ones; R-SUP1 skips them.
constexpr std::string_view kSupExemptPath = "util/lint";

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

bool is_test_path(std::string_view path) {
  if (path.find("tests/") != std::string_view::npos) {
    return true;
  }
  constexpr std::string_view kSuffix = "_test.cpp";
  return path.size() >= kSuffix.size() &&
         path.substr(path.size() - kSuffix.size()) == kSuffix;
}

std::vector<Finding> filter_rules(std::vector<Finding> findings,
                                  const LintOptions& options) {
  if (options.only_rules.empty()) {
    return findings;
  }
  std::vector<Finding> kept;
  for (auto& finding : findings) {
    if (std::find(options.only_rules.begin(), options.only_rules.end(),
                  finding.rule) != options.only_rules.end()) {
      kept.push_back(std::move(finding));
    }
  }
  return kept;
}

}  // namespace

std::vector<std::string> collect_sources(const std::vector<std::string>& roots) {
  std::vector<std::string> sources;
  std::error_code ec;
  for (const auto& root : roots) {
    if (fs::is_regular_file(root, ec)) {
      sources.push_back(root);
      continue;
    }
    for (fs::recursive_directory_iterator it(root, ec), end; it != end;
         it.increment(ec)) {
      if (ec) {
        break;
      }
      if (!it->is_regular_file(ec)) {
        continue;
      }
      const std::string ext = it->path().extension().string();
      if (ext == ".cpp" || ext == ".h") {
        sources.push_back(it->path().string());
      }
    }
  }
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  return sources;
}

std::vector<Finding> lint_model(const ProjectModel& model, const LintOptions& options,
                                AnalysisCache* cache) {
  const std::size_t file_count = model.files().size();

  // Symbol index, reusing cached per-file scans for byte-identical files.
  SymbolIndex index;
  if (cache != nullptr) {
    for (std::size_t f = 0; f < file_count; ++f) {
      const ProjectFile& file = model.files()[f];
      const std::uint64_t key = cache_hash(file.text);
      AnalysisCache::SymbolEntry entry;
      if (cache->lookup_symbols(key, entry)) {
        index.add_cached(entry.records, entry.deprecated, f, file.path);
        continue;
      }
      const std::size_t record_base = index.records().size();
      const std::size_t deprecated_base = index.deprecated().decls.size();
      index.add_file(file, f);
      entry.records.assign(index.records().begin() + record_base,
                           index.records().end());
      entry.deprecated.assign(index.deprecated().decls.begin() + deprecated_base,
                              index.deprecated().decls.end());
      cache->store_symbols(key, std::move(entry));
    }
  } else {
    index = SymbolIndex::build(model);
  }

  // Hash of the project-wide deprecated set: part of the per-file rule
  // cache key, since R-API1 resolves against it.
  std::uint64_t deprecated_hash = 1469598103934665603ULL;
  for (const auto& decl : index.deprecated().decls) {
    deprecated_hash = cache_hash(decl.name, deprecated_hash);
    deprecated_hash = cache_hash(std::to_string(decl.arity), deprecated_hash);
  }

  // Per-file pass, parallelized over util::parallel_for. Results land in
  // per-file slots and are concatenated in model order afterwards, so the
  // output is byte-identical at any thread count.
  std::vector<std::vector<Finding>> per_file(file_count);
  std::vector<UnorderedDecls> closure_decls(file_count);
  SuppressionUsage usage;
  usage.used.resize(file_count);
  for (std::size_t f = 0; f < file_count; ++f) {
    usage.used[f].assign(model.files()[f].lex.suppressions.size(), 0);
  }

  // Include closure of every file, in deterministic (index) order.
  // Precomputed serially: the DFS worklist would trip R-RACE2's own
  // captured-growth heuristic inside the parallel body.
  std::vector<std::vector<std::size_t>> closures(file_count);
  for (std::size_t f = 0; f < file_count; ++f) {
    std::vector<char> seen(file_count, 0);
    std::vector<std::size_t> stack{f};
    seen[f] = 1;
    while (!stack.empty()) {
      const std::size_t at = stack.back();
      stack.pop_back();
      for (const auto& edge : model.files()[at].edges) {
        if (edge.target != ProjectModel::npos && seen[edge.target] == 0) {
          seen[edge.target] = 1;
          stack.push_back(edge.target);
        }
      }
    }
    for (std::size_t at = 0; at < file_count; ++at) {
      if (seen[at] != 0) {
        closures[f].push_back(at);
      }
    }
  }

  util::parallel_for(file_count, [&](std::size_t f) {
    const ProjectFile& file = model.files()[f];
    if (file.text.empty() && file.lex.tokens.empty()) {
      return;  // unreadable (build() records it empty) or genuinely empty
    }
    const std::vector<std::size_t>& closure = closures[f];

    // R-DET3's unordered-container declarations come from the file plus
    // everything it reaches through the include graph. Two passes: the
    // first registers every alias regardless of which closure member
    // declares it, the second resolves alias-typed declarations against the
    // full alias set — one pass would miss a variable whose alias lives in
    // a header scanned later (collection is idempotent, so rescanning is
    // safe).
    UnorderedDecls& decls = closure_decls[f];
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::size_t at : closure) {
        collect_unordered_decls(model.files()[at].lex.tokens, decls);
      }
    }

    FileInfo info;
    info.path = file.path;
    info.is_header = file.is_header;
    info.is_test = is_test_path(file.path);

    std::uint64_t rule_key = 0;
    if (cache != nullptr) {
      rule_key = cache_hash(file.text, cache_hash(file.path)) ^ deprecated_hash;
      AnalysisCache::RuleEntry entry;
      if (cache->lookup_rules(rule_key, entry) &&
          entry.suppression_used.size() == usage.used[f].size()) {
        per_file[f] = std::move(entry.findings);
        usage.used[f] = std::move(entry.suppression_used);
        return;
      }
    }

    // R-API1 resolves against the project-wide deprecated set, so calls
    // through headers this file never includes are still caught.
    per_file[f] = run_rules(info, file.lex, index.deprecated(), &usage.used[f]);
    if (cache != nullptr) {
      cache->store_rules(rule_key,
                         AnalysisCache::RuleEntry{per_file[f], usage.used[f]});
    }
  });

  std::vector<Finding> findings;
  for (auto& slot : per_file) {
    findings.insert(findings.end(), std::make_move_iterator(slot.begin()),
                    std::make_move_iterator(slot.end()));
  }

  auto arch = check_layering(model, &usage);
  findings.insert(findings.end(), std::make_move_iterator(arch.begin()),
                  std::make_move_iterator(arch.end()));
  auto cycles = check_include_cycles(model);
  findings.insert(findings.end(), std::make_move_iterator(cycles.begin()),
                  std::make_move_iterator(cycles.end()));
  auto odr = check_odr(index, model, &usage);
  findings.insert(findings.end(), std::make_move_iterator(odr.begin()),
                  std::make_move_iterator(odr.end()));

  // Interprocedural passes (seg-lint v3): call graph, then R-DET3 taint
  // tracking and R-EXC1 thread-exception routing. Finding anchors in test
  // code are dropped — fixtures exercise the patterns on purpose — and
  // per-file suppressions apply at the anchor.
  const CallGraph graph = CallGraph::build(index, model);
  const DataflowResult flow = run_dataflow(index, graph, model, closure_decls);
  std::vector<Finding> interproc = flow.det3;
  auto exc = check_thread_exceptions(index, graph, model, flow);
  interproc.insert(interproc.end(), std::make_move_iterator(exc.begin()),
                   std::make_move_iterator(exc.end()));
  for (auto& finding : interproc) {
    if (is_test_path(finding.file)) {
      continue;
    }
    const std::size_t file_index = model.index_of(finding.file);
    if (file_index != ProjectModel::npos) {
      std::vector<Finding> one;
      one.push_back(std::move(finding));
      one = apply_suppressions(std::move(one),
                               model.files()[file_index].lex.suppressions,
                               &usage.used[file_index]);
      if (!one.empty()) {
        findings.push_back(std::move(one.front()));
      }
    } else {
      findings.push_back(std::move(finding));
    }
  }

  // R-SUP1: a directive no pass used is stale — it either outlived the code
  // it excused or names the wrong rule. Not itself suppressible.
  for (std::size_t f = 0; f < file_count; ++f) {
    const ProjectFile& file = model.files()[f];
    if (file.path.find(kSupExemptPath) != std::string::npos) {
      continue;
    }
    for (std::size_t s = 0; s < file.lex.suppressions.size(); ++s) {
      if (usage.used[f][s] != 0) {
        continue;
      }
      const Suppression& sup = file.lex.suppressions[s];
      findings.push_back(Finding{
          file.path, sup.line, "R-SUP1",
          "stale suppression: '" + std::string(sup.whole_file ? "allow-file" : "allow") +
              "(" + sup.rule + ")' matched no finding — delete the directive "
              "or fix the rule name"});
    }
  }

  findings = filter_rules(std::move(findings), options);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  return findings;
}

std::vector<Finding> lint_project(const std::vector<std::string>& sources,
                                  const LintOptions& options, AnalysisCache* cache) {
  LayersConfig layers;
  if (!options.layers_file.empty()) {
    std::string toml;
    if (!read_file(options.layers_file, toml)) {
      return {Finding{options.layers_file, 0, "CONFIG", "cannot read layers file"}};
    }
    try {
      layers = parse_layers(toml);
    } catch (const std::runtime_error& error) {
      return {Finding{options.layers_file, 0, "CONFIG", error.what()}};
    }
  }

  const ProjectModel model = ProjectModel::build(sources, options, layers);
  return lint_model(model, options, cache);
}

}  // namespace seg::lint
