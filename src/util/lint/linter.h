// seg-lint driver: file discovery and the whole-program lint.
//
// The driver walks source roots for .cpp/.h files, loads them once into
// the project model (project_model.h), runs the per-file rules from
// rules.h over every file, then the cross-file and interprocedural passes.
#pragma once

#include <string>
#include <vector>

#include "util/lint/rules.h"

namespace seg::lint {

struct LintOptions {
  /// Roots the include resolver may search for quoted #includes (usually
  /// the same directories being linted; `src` matters in practice).
  std::vector<std::string> include_roots;
  /// When non-empty, only findings for these rules are reported.
  std::vector<std::string> only_rules;
  /// Path to the layers.toml layering spec. Empty disables R-ARCH1 (the
  /// include graph is still built for R-ARCH2/R-ODR1).
  std::string layers_file;
};

/// All .cpp/.h files under `roots` (files are accepted verbatim),
/// lexicographically sorted so diagnostics order is stable.
std::vector<std::string> collect_sources(const std::vector<std::string>& roots);

class ProjectModel;

/// Whole-program lint (seg-lint v3): loads every source once into the
/// project model (project_model.h), runs the per-file rules in parallel
/// (util::parallel_for; set_parallelism / SEG_THREADS control the width,
/// output is byte-identical at any width) with R-API1 backed by the
/// cross-TU symbol index, then the cross-file passes — R-ARCH1 layering
/// (when `options.layers_file` is set), R-ARCH2 include cycles, R-ODR1,
/// and the interprocedural dataflow rules R-DET3 / R-EXC1 (dataflow.h).
/// Suppression directives that cover no finding come back as R-SUP1.
/// Findings are sorted by (file, line, rule). A malformed layers file
/// yields a single CONFIG finding.
std::vector<Finding> lint_project(const std::vector<std::string>& sources,
                                  const LintOptions& options);

/// The analysis half of lint_project, over an already-built model. Exposed
/// so tests can lint in-memory trees (ProjectModel::from_memory).
std::vector<Finding> lint_model(const ProjectModel& model, const LintOptions& options);

}  // namespace seg::lint
