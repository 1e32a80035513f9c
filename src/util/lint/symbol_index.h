// Cross-TU symbol index for seg-lint v2.
//
// Built from the project model's token streams (no name lookup, no
// preprocessing): a scope-tracking pass records every namespace, class, and
// free/member function declaration or definition with its qualified name,
// arity, normalized parameter signature, and — for definitions — a body
// token fingerprint. On top of the index:
//
//   R-ODR1  the one-definition rule across translation units:
//           (a) the same external symbol defined with a body in two or more
//               .cpp files ("multiple definition");
//           (b) an inline (or implicitly inline: class-member, template,
//               constexpr) function defined in several places with
//               *diverging* bodies — identical token sequences are legal,
//               divergence is undefined behavior;
//           (c) a non-inline function defined in a header that two or more
//               translation units include ("mark it inline").
//
// The index also aggregates every `// seg-deprecated` tag in the project,
// which upgrades R-API1 from "headers the caller happens to include" to
// whole-program resolution.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/lint/project_model.h"

namespace seg::lint {

/// One function declaration or definition found by the scope scanner.
struct SymbolRecord {
  std::string qualified_name;  ///< e.g. "seg::core::Pipeline::train"
  std::string name;            ///< last component
  std::size_t arity = 0;
  std::string signature;       ///< normalized parameter types (names stripped)
  std::string file;
  std::size_t line = 0;
  bool has_body = false;
  /// inline keyword, constexpr, template, or defined inside a class body —
  /// anything the language treats as inline for ODR purposes.
  bool is_inline = false;
  /// static or anonymous-namespace: internal linkage, exempt from cross-TU
  /// ODR concerns.
  bool internal = false;
  bool in_header = false;
  /// FNV-1a fingerprint of the definition's body tokens (0 when !has_body).
  std::uint64_t body_hash = 0;
  /// Index of the owning file in the project model (npos for records added
  /// through the bare test entry point).
  std::size_t file_index = static_cast<std::size_t>(-1);
  /// Token index of the parameter list's `(` in the owning file's stream.
  std::size_t param_open = 0;
  /// Token range of the definition body: `body_begin` points at the `{`,
  /// `body_end` one past the matching `}`. Both 0 when !has_body. These let
  /// the call graph and dataflow passes re-enter the body without re-lexing.
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
};

class SymbolIndex {
 public:
  /// Scans every file of the model. Deterministic: files are visited in the
  /// model's sorted order and records keep discovery order.
  static SymbolIndex build(const ProjectModel& model);

  const std::vector<SymbolRecord>& records() const { return records_; }

  /// Project-wide deprecated entry points (union of every file's
  /// `// seg-deprecated` tags), for symbol-index-backed R-API1.
  const DeprecatedDecls& deprecated() const { return deprecated_; }

  /// Exposed for tests: scans one file's tokens into `records_`.
  /// `file_index` is the file's position in the owning model (npos when the
  /// caller has no model).
  void add_file(const ProjectFile& file,
                std::size_t file_index = static_cast<std::size_t>(-1));

  /// Reuses a cached per-file scan (analysis_cache.h): appends `records`
  /// with file/file_index patched to this model's view, and merges the
  /// file's deprecated-tag contribution.
  void add_cached(const std::vector<SymbolRecord>& records,
                  const std::vector<DeprecatedDecls::Decl>& deprecated,
                  std::size_t file_index, const std::string& path);

 private:
  std::vector<SymbolRecord> records_;
  DeprecatedDecls deprecated_;
};

/// R-ODR1 over the index (see header comment). `model` supplies the include
/// graph for case (c) and per-file suppressions. When `usage` is non-null,
/// suppressions that drop a finding are marked used (stale-suppression
/// detection).
std::vector<Finding> check_odr(const SymbolIndex& index, const ProjectModel& model,
                               SuppressionUsage* usage = nullptr);

}  // namespace seg::lint
