// seg-lint output layer.
//
// Three serializations of a finding list:
//
//   text   the classic `file:line: [RULE] message` lines;
//   json   a versioned machine-readable document;
//   sarif  SARIF 2.1.0 for code-scanning UIs and CI artifact upload.
//
// --diff-base identifies findings by a *line-free* key — normalized
// project path + rule + message — so editing code above a known finding
// does not make it new, and findings from an absolute ctest path compare
// equal to the same findings from a `git archive` scratch tree.
// Subtraction is multiset-style: three R-DET3 findings in a file at the
// base revision absorb exactly three current ones.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/lint/rules.h"

namespace seg::lint {

/// `path` reduced to its project-relative suffix: everything before the
/// first `src/`, `tools/`, `bench/`, `tests/`, or `examples/` component is
/// dropped (backslashes normalized first). Paths containing none of those
/// roots come back unchanged.
std::string normalize_path(std::string_view path);

/// Stable identity of a finding: normalized path, rule, and message joined
/// with an unprintable separator. Line numbers are deliberately excluded
/// (see file banner).
std::string finding_key(const Finding& finding);

void write_text(std::ostream& out, const std::vector<Finding>& findings);
void write_json(std::ostream& out, const std::vector<Finding>& findings);
void write_sarif(std::ostream& out, const std::vector<Finding>& findings);

/// Multiset subtraction: drops each finding matched by a not-yet-consumed
/// key of the base revision's findings; what remains is "new relative to
/// the base".
std::vector<Finding> subtract_baseline(std::vector<Finding> findings,
                                       const std::vector<std::string>& base_keys);

}  // namespace seg::lint
