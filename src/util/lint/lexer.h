// Lightweight C++ lexer for seg-lint.
//
// Produces a token stream with line numbers, with comments and string/char
// literals stripped so rules never fire on text inside literals. Comment
// text is scanned for seg-lint suppression directives before being dropped:
//
//   // seg-lint: allow(R-DET3)            suppress on this line and the next
//   // seg-lint: allow-file(R-DET3)       suppress for the whole file
//   // seg-lint: allow(R-DET3, R-RACE2)   several rules at once
//
// Comments are also scanned for the `// seg-deprecated` marker, which tags
// the declaration on the following line as a deprecated entry point for
// rule R-API1 (see rules.h).
//
// This is not a full C++ front end — no preprocessing, no name lookup. It
// is exactly enough structure for the project-contract rules in rules.h to
// pattern-match deterministically.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace seg::lint {

enum class TokKind {
  kIdentifier,  // identifiers and keywords
  kNumber,
  kPunct,  // operators and punctuation; multi-char operators are one token
};

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string_view text;  // view into the lexed source
  std::size_t line = 0;   // 1-based
};

struct Suppression {
  std::size_t line = 0;    // line the directive appears on
  std::string rule;        // e.g. "R-DET3"
  bool whole_file = false;  // allow-file(...) form
};

/// One `#include` directive, extracted during lexing so directives inside
/// comments or string literals are never counted (the whole-program include
/// graph in project_model.h is built from these). Line-continuation
/// backslashes between `#`, `include`, and the target are handled.
struct IncludeDirective {
  std::string target;   // path between the quotes / angle brackets
  std::size_t line = 0;  // line of the `#`
  bool quoted = false;   // "..." (project include) vs <...> (system)
};

struct LexResult {
  std::vector<Token> tokens;
  std::vector<Suppression> suppressions;
  /// Lines carrying a `seg-deprecated` marker comment; the declaration
  /// that follows each marker is a deprecated entry point (R-API1).
  std::vector<std::size_t> deprecated_markers;
  /// #include directives in order of appearance.
  std::vector<IncludeDirective> includes;
  std::size_t line_count = 0;
};

/// Lexes `source`. Token string_views point into `source`, which must
/// outlive the result.
LexResult lex(std::string_view source);

}  // namespace seg::lint
