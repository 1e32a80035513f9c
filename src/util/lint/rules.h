// seg-lint rule definitions.
//
// Each rule enforces one project contract from the parallel-determinism
// work (see docs/static-analysis.md for the full rationale):
//
//   R-DET1  no wall-clock / ambient-randomness calls (rand, srand,
//           std::random_device, time(nullptr), system_clock::now) in
//           pipeline code outside the timing/instrumentation allowlist.
//   R-RACE1 no std::vector<bool> anywhere; its packed-bit proxy reference
//           makes element writes from different threads race.
//   R-RACE2 lambdas passed to parallel_for / parallel_chunks that capture
//           by reference must not grow a captured container or write
//           through an unpartitioned subscript.
//   R-HDR1  every header starts its include story with #pragma once.
//   R-HDR2  no `using namespace` at header scope.
//   R-API1  no calls to deprecated entry points (declarations tagged with
//           a `// seg-deprecated` marker comment in a header) from
//           non-test code; arity disambiguates same-name overloads. The
//           deprecated set comes from the cross-TU symbol index, so calls
//           through headers the caller never includes are still caught.
//   R-LIFE1 no returning a reference, string_view, or span that points at
//           function-local storage or at the temporary returned by a
//           `*_batch` call (the parallel feature path hands out batch
//           results by value; a view into one dangles immediately).
//   R-OBS1  no raw timing primitives (steady_clock, high_resolution_clock,
//           Stopwatch) outside src/util/obs/ — instrumentation goes through
//           the seg::obs span/metric layer so every timing number is
//           visible to the trace/run-report exporters.
//   R-MEM1  no raw memory-mapping syscalls (mmap, munmap, mremap, madvise,
//           mbind) outside src/util/mmap_file.{h,cpp} — mapping lifetime,
//           page release, and error handling live behind util::MmapFile so
//           every mapping is released exactly once.
//   R-WIRE1 no computed subscripts or pointer arithmetic on raw parser
//           bytes under src/dns/wire/ outside the ByteCursor itself.
//
// Rules operate on the token stream from lexer.h plus a per-file
// classification computed by the driver in linter.h; the path allowlists
// that scope R-DET1, R-OBS1, R-MEM1 and R-WIRE1 are constants beside each
// rule in rules.cpp. All matching is intentionally heuristic;
// `// seg-lint: allow(RULE)` suppresses a finding on the directive's line
// or the line below it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/lint/lexer.h"

namespace seg::lint {

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

/// Per-file facts the rules condition on, derived by the driver.
struct FileInfo {
  std::string path;
  bool is_header = false;
  /// Test code (under tests/ or named *_test.cpp): exempt from R-API1 so
  /// deprecated entry points keep regression coverage until deleted.
  bool is_test = false;
};

/// Identifiers known (from a file and its include closure) to name
/// unordered containers: variables/members/parameters plus type aliases
/// that expand to unordered_map/unordered_set. R-DET3's taint sources.
struct UnorderedDecls {
  std::vector<std::string> names;
  std::vector<std::string> aliases;

  bool has_name(std::string_view id) const;
  bool has_alias(std::string_view id) const;
};

/// Scans a token stream for unordered-container declarations, accumulating
/// into `decls`. Called for every file of a file's include closure so
/// member types declared away from their use are still known.
void collect_unordered_decls(const std::vector<Token>& tokens, UnorderedDecls& decls);

/// Entry points tagged `// seg-deprecated`: the function declared directly
/// below each marker, identified by name plus parameter count so the
/// replacement overload with a different arity stays legal (R-API1).
struct DeprecatedDecls {
  struct Decl {
    std::string name;
    std::size_t arity = 0;
  };
  std::vector<Decl> decls;

  bool matches(std::string_view name, std::size_t arity) const;
};

/// Scans a lexed file for `seg-deprecated` markers and records the tagged
/// declarations. The symbol index calls it for every file of the model.
void collect_deprecated_decls(const LexResult& lex, DeprecatedDecls& decls);

/// Runs every per-file rule over one file's token stream; `deprecated` is
/// the project-wide R-API1 set. Suppressed findings are dropped before
/// returning. When `suppression_used` is non-null it must be sized to
/// `lex.suppressions.size()`; entries whose directive dropped at least one
/// finding are set to 1 (stale-suppression detection, R-SUP1).
std::vector<Finding> run_rules(const FileInfo& info, const LexResult& lex,
                               const DeprecatedDecls& deprecated,
                               std::vector<char>* suppression_used = nullptr);

/// Token-stream structural helpers, shared with the cross-TU passes in
/// project_model.cpp / symbol_index.cpp.
bool is_id(const Token& tok, std::string_view text);
bool is_punct(const Token& tok, std::string_view text);
/// Identifiers that can precede a declared name without being a type.
bool non_type_keyword(std::string_view id);
/// Index just past the token matching the opener at `open` (one of `([{`),
/// or toks.size() when unbalanced.
std::size_t skip_balanced(const std::vector<Token>& toks, std::size_t open);
/// Index just past the `>` matching the `<` at `open`, or `open` when the
/// angle bracket never closes in a plausible span (then it was a
/// comparison). `>>` closes two levels.
std::size_t skip_template_args(const std::vector<Token>& toks, std::size_t open);
/// True for unordered_map / unordered_set / unordered_multimap /
/// unordered_multiset (the R-DET3 source containers).
bool is_unordered_container(std::string_view id);
/// Argument/parameter count of the parenthesized list opening at `open`.
std::size_t paren_list_arity(const std::vector<Token>& toks, std::size_t open);
/// True when the parenthesized list at `open` belongs to a function
/// definition or declaration rather than a call.
bool is_function_heading(const std::vector<Token>& toks, std::size_t name,
                         std::size_t open);

/// True when a suppression directive covers `rule`: exact match
/// ("R-ARCH1"), or the rule's lowercase category ("arch" covers R-ARCH1 and
/// R-ARCH2).
bool suppression_covers(std::string_view directive_rule, std::string_view rule);

/// Drops findings covered by a suppression on their own line or the line
/// above, or by an allow-file directive. Shared by the per-file rules and
/// the cross-file passes in project_model.h. When `used` is non-null it
/// must be sized to `suppressions.size()`; directives that dropped at least
/// one finding are marked 1.
std::vector<Finding> apply_suppressions(std::vector<Finding> findings,
                                        const std::vector<Suppression>& suppressions,
                                        std::vector<char>* used = nullptr);

/// Per-model-file record of which suppression directives covered a finding:
/// `used[file_index][suppression_index]`. The driver threads one instance
/// through every pass, then reports directives that never fired as R-SUP1
/// stale-suppression findings.
struct SuppressionUsage {
  std::vector<std::vector<char>> used;
};

}  // namespace seg::lint
