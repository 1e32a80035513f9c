// seg-lint output layer.
//
// Three serializations of a finding list:
//
//   text   the classic `file:line: [RULE] message` lines;
//   json   a versioned machine-readable document;
//   sarif  SARIF 2.1.0 for code-scanning UIs and CI artifact upload.
//
// json and sarif name each file by its project-relative path
// (normalize_path), so the documents do not depend on where the checkout
// lives.
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

void write_text(std::ostream& out, const std::vector<Finding>& findings);
void write_json(std::ostream& out, const std::vector<Finding>& findings);
void write_sarif(std::ostream& out, const std::vector<Finding>& findings);

}  // namespace seg::lint
