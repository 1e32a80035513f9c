#include "util/lint/symbol_index.h"

#include <algorithm>
#include <cctype>
#include <map>

namespace seg::lint {

namespace {

using Tokens = std::vector<Token>;

// ALL_CAPS names are macro invocations (TEST, EXPECT_EQ, BENCHMARK, ...)
// whose token-level shape mimics a function definition; the index skips
// them entirely.
bool macro_like(std::string_view name) {
  bool has_upper = false;
  for (const char c : name) {
    if (std::islower(static_cast<unsigned char>(c)) != 0) {
      return false;
    }
    has_upper |= std::isupper(static_cast<unsigned char>(c)) != 0;
  }
  return has_upper;
}

std::uint64_t fnv1a(std::uint64_t hash, std::string_view text) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kPrime;
  }
  hash ^= 0x1f;  // token separator
  hash *= kPrime;
  return hash;
}

std::uint64_t hash_tokens(const Tokens& toks, std::size_t begin, std::size_t end) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (std::size_t i = begin; i < end; ++i) {
    hash = fnv1a(hash, toks[i].text);
  }
  return hash;
}

// Normalized parameter signature of the list at `open`: per parameter, the
// type tokens with the trailing parameter *name* stripped (so declarations
// and definitions that only differ in spelling of the names compare equal),
// defaults dropped. Parameters join with ",", tokens with " ".
std::string signature_of(const Tokens& toks, std::size_t open) {
  const std::size_t close = skip_balanced(toks, open);
  std::string signature;
  std::vector<std::string_view> segment;
  int depth = 0;
  const auto flush = [&] {
    // Drop the trailing identifier when it follows other type tokens: it is
    // the parameter name. A single-token segment (`(int)`) is just a type.
    if (segment.size() >= 2 && !segment.empty()) {
      const std::string_view last = segment.back();
      const bool ident_like = !last.empty() && (std::isalpha(static_cast<unsigned char>(
                                                    last.front())) != 0 ||
                                                last.front() == '_');
      const std::string_view prev = segment[segment.size() - 2];
      const bool prev_closes_type =
          prev == "&" || prev == "*" || prev == ">" || prev == "&&" ||
          (!prev.empty() && (std::isalpha(static_cast<unsigned char>(prev.front())) != 0 ||
                             prev.front() == '_'));
      if (ident_like && prev_closes_type) {
        segment.pop_back();
      }
    }
    if (!signature.empty() || !segment.empty()) {
      if (!signature.empty()) {
        signature += ",";
      }
      for (std::size_t k = 0; k < segment.size(); ++k) {
        signature += (k == 0 ? "" : " ") + std::string(segment[k]);
      }
    }
    segment.clear();
  };
  bool in_default = false;
  for (std::size_t i = open + 1; i + 1 < close; ++i) {
    const auto& t = toks[i];
    if (is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{") || is_punct(t, "<")) {
      ++depth;
    } else if (is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}") ||
               is_punct(t, ">")) {
      --depth;
    }
    if (depth == 0 && is_punct(t, ",")) {
      flush();
      in_default = false;
      continue;
    }
    if (depth == 0 && is_punct(t, "=")) {
      in_default = true;  // default argument: not part of the type
      continue;
    }
    if (!in_default) {
      segment.push_back(t.text);
    }
  }
  flush();
  return signature;
}

struct Scope {
  std::string name;      // empty for anonymous namespaces / extern "C"
  bool internal = false;  // anonymous namespace
  bool is_class = false;
};

}  // namespace

void SymbolIndex::add_file(const ProjectFile& file, std::size_t file_index) {
  collect_deprecated_decls(file.lex, deprecated_);

  const Tokens& toks = file.lex.tokens;
  const std::size_t n = toks.size();
  std::vector<Scope> scopes;
  bool pending_inline = false;
  bool pending_static = false;
  bool pending_template = false;
  const auto reset_pending = [&] {
    pending_inline = pending_static = pending_template = false;
  };

  std::size_t i = 0;
  while (i < n) {
    const Token& t = toks[i];
    if (is_punct(t, ";")) {
      reset_pending();
      ++i;
      continue;
    }
    if (is_id(t, "namespace")) {
      std::size_t j = i + 1;
      std::string name;
      while (j < n && (toks[j].kind == TokKind::kIdentifier || is_punct(toks[j], "::"))) {
        name += toks[j].text;
        ++j;
      }
      if (j < n && is_punct(toks[j], "{")) {
        scopes.push_back(Scope{name, name.empty(), false});
        i = j + 1;
      } else {
        while (j < n && !is_punct(toks[j], ";")) ++j;  // alias / using-directive
        i = j + 1;
      }
      reset_pending();
      continue;
    }
    if (is_id(t, "enum")) {
      std::size_t j = i + 1;
      while (j < n && !is_punct(toks[j], "{") && !is_punct(toks[j], ";")) ++j;
      i = (j < n && is_punct(toks[j], "{")) ? skip_balanced(toks, j) : j + 1;
      reset_pending();
      continue;
    }
    if (is_id(t, "class") || is_id(t, "struct") || is_id(t, "union")) {
      std::size_t j = i + 1;
      std::string name;
      if (j < n && toks[j].kind == TokKind::kIdentifier) {
        name = std::string(toks[j].text);
        ++j;
      }
      int angle = 0;
      while (j < n) {
        if (is_punct(toks[j], "<")) {
          ++angle;
        } else if (is_punct(toks[j], ">")) {
          --angle;
        } else if (angle <= 0 && (is_punct(toks[j], "{") || is_punct(toks[j], ";") ||
                                  is_punct(toks[j], "(") || is_punct(toks[j], "=") ||
                                  is_punct(toks[j], ")"))) {
          break;
        }
        ++j;
      }
      if (j < n && is_punct(toks[j], "{") && !name.empty()) {
        scopes.push_back(Scope{name, false, true});
        reset_pending();
        i = j + 1;
        continue;
      }
      ++i;  // forward declaration or elaborated type specifier
      continue;
    }
    if (is_id(t, "template")) {
      pending_template = true;
      if (i + 1 < n && is_punct(toks[i + 1], "<")) {
        int angle = 0;
        std::size_t j = i + 1;
        while (j < n) {
          if (is_punct(toks[j], "<")) {
            ++angle;
          } else if (is_punct(toks[j], ">") || is_punct(toks[j], ">>")) {
            angle -= toks[j].text == ">>" ? 2 : 1;
            if (angle <= 0) {
              ++j;
              break;
            }
          }
          ++j;
        }
        i = j;
      } else {
        ++i;
      }
      continue;
    }
    if (is_id(t, "inline") || is_id(t, "constexpr") || is_id(t, "consteval")) {
      pending_inline = true;
      ++i;
      continue;
    }
    if (is_id(t, "static")) {
      pending_static = true;
      ++i;
      continue;
    }
    if (is_id(t, "extern") && i + 1 < n && is_punct(toks[i + 1], "{")) {
      // `extern "C" {` — the literal is stripped by the lexer.
      scopes.push_back(Scope{});
      i += 2;
      continue;
    }
    if (is_id(t, "using") || is_id(t, "typedef")) {
      while (i < n && !is_punct(toks[i], ";")) ++i;
      continue;
    }
    if (is_punct(t, "{")) {
      i = skip_balanced(toks, i);  // initializer or body we did not classify
      continue;
    }
    if (is_punct(t, "}")) {
      if (!scopes.empty()) {
        scopes.pop_back();
      }
      reset_pending();
      ++i;
      continue;
    }
    if (t.kind == TokKind::kIdentifier && i + 1 < n && is_punct(toks[i + 1], "(") &&
        is_function_heading(toks, i, i + 1)) {
      // Qualified definition names (`void Pipeline::train(...)`) contribute
      // their `Foo::` prefix; the scanner stands on the final component.
      std::string qualifier;
      for (std::size_t k = i; k >= 2 && is_punct(toks[k - 1], "::") &&
                              toks[k - 2].kind == TokKind::kIdentifier;
           k -= 2) {
        qualifier = std::string(toks[k - 2].text) + "::" + qualifier;
      }
      const std::size_t close = skip_balanced(toks, i + 1);
      std::size_t after = close;
      while (after < n &&
             (is_id(toks[after], "const") || is_id(toks[after], "noexcept") ||
              is_id(toks[after], "override") || is_id(toks[after], "final") ||
              is_punct(toks[after], "&") || is_punct(toks[after], "&&"))) {
        if (is_id(toks[after], "noexcept") && after + 1 < n &&
            is_punct(toks[after + 1], "(")) {
          after = skip_balanced(toks, after + 1);
        } else {
          ++after;
        }
      }
      if (after < n && is_punct(toks[after], "->")) {  // trailing return type
        ++after;
        while (after < n && !is_punct(toks[after], "{") && !is_punct(toks[after], ";")) {
          ++after;
        }
      }
      const bool has_body = after < n && is_punct(toks[after], "{");
      const bool is_decl = after < n && is_punct(toks[after], ";");
      if (!has_body && !is_decl) {
        ++i;
        continue;
      }
      if (!macro_like(t.text) && t.text != "main") {
        SymbolRecord record;
        record.name = std::string(t.text);
        std::string scope_path;
        bool in_class = false;
        bool in_anon = false;
        for (const auto& scope : scopes) {
          if (!scope.name.empty()) {
            scope_path += scope.name + "::";
          }
          in_class |= scope.is_class;
          in_anon |= scope.internal;
        }
        record.qualified_name = scope_path + qualifier + record.name;
        record.arity = paren_list_arity(toks, i + 1);
        record.signature = signature_of(toks, i + 1);
        record.file = file.path;
        record.line = t.line;
        record.has_body = has_body;
        record.is_inline = pending_inline || pending_template || in_class;
        record.internal = pending_static || in_anon;
        record.in_header = file.is_header;
        record.file_index = file_index;
        record.param_open = i + 1;
        if (has_body) {
          const std::size_t body_end = skip_balanced(toks, after);
          record.body_hash = hash_tokens(toks, after + 1, body_end - 1);
          record.body_begin = after;
          record.body_end = body_end;
          i = body_end;
        } else {
          i = after + 1;
        }
        records_.push_back(std::move(record));
        reset_pending();
        continue;
      }
      // Macro-shaped pseudo-definition (TEST(...) { ... }): skip its body so
      // its locals never look like top-level declarations.
      i = has_body ? skip_balanced(toks, after) : after + 1;
      reset_pending();
      continue;
    }
    ++i;
  }
}

SymbolIndex SymbolIndex::build(const ProjectModel& model) {
  SymbolIndex index;
  for (std::size_t f = 0; f < model.files().size(); ++f) {
    index.add_file(model.files()[f], f);
  }
  return index;
}

std::vector<Finding> check_odr(const SymbolIndex& index, const ProjectModel& model,
                               SuppressionUsage* usage) {
  // How many .cpp translation units (transitively) include each file — the
  // evidence for case (c), a non-inline definition in a shared header.
  std::vector<std::size_t> tu_count(model.files().size(), 0);
  for (std::size_t f = 0; f < model.files().size(); ++f) {
    const auto& path = model.files()[f].path;
    if (path.size() < 4 || path.substr(path.size() - 4) != ".cpp") {
      continue;
    }
    std::vector<char> seen(model.files().size(), 0);
    std::vector<std::size_t> stack{f};
    seen[f] = 1;
    while (!stack.empty()) {
      const std::size_t at = stack.back();
      stack.pop_back();
      for (const auto& edge : model.files()[at].edges) {
        if (edge.target != ProjectModel::npos && seen[edge.target] == 0) {
          seen[edge.target] = 1;
          ++tu_count[edge.target];
          stack.push_back(edge.target);
        }
      }
    }
  }

  // Group external definitions by qualified name + arity; std::map keeps
  // report order deterministic.
  std::map<std::string, std::vector<const SymbolRecord*>> groups;
  for (const auto& record : index.records()) {
    if (record.has_body && !record.internal) {
      groups[record.qualified_name + "/" + std::to_string(record.arity)].push_back(
          &record);
    }
  }

  std::vector<Finding> findings;
  for (const auto& [key, defs] : groups) {
    (void)key;
    // Case (c): a single non-inline header definition pulled into >= 2 TUs.
    for (const auto* def : defs) {
      if (!def->in_header || def->is_inline) {
        continue;
      }
      const std::size_t file_index = model.index_of(def->file);
      if (file_index != ProjectModel::npos && tu_count[file_index] >= 2) {
        findings.push_back(Finding{
            def->file, def->line, "R-ODR1",
            "'" + def->qualified_name + "' is defined (non-inline) in a header "
                "included by " + std::to_string(tu_count[file_index]) +
                " translation units; every one of them emits a definition — "
                "mark it inline"});
      }
    }
    // Cases (a)/(b) need two definitions in different files with matching
    // signatures (different signatures are distinct overloads).
    std::vector<const SymbolRecord*> distinct;
    for (const auto* def : defs) {
      const bool dup = std::any_of(distinct.begin(), distinct.end(),
                                   [&](const SymbolRecord* d) { return d->file == def->file; });
      if (!dup) {
        distinct.push_back(def);
      }
    }
    if (distinct.size() < 2) {
      continue;
    }
    const bool signatures_match = std::all_of(
        distinct.begin(), distinct.end(),
        [&](const SymbolRecord* d) { return d->signature == distinct[0]->signature; });
    if (!signatures_match) {
      continue;
    }
    std::string sites;
    for (const auto* def : distinct) {
      sites += (sites.empty() ? "" : ", ") + def->file + ":" + std::to_string(def->line);
    }
    const bool all_inline = std::all_of(distinct.begin(), distinct.end(),
                                        [](const SymbolRecord* d) { return d->is_inline; });
    if (all_inline) {
      const bool divergent = std::any_of(
          distinct.begin(), distinct.end(),
          [&](const SymbolRecord* d) { return d->body_hash != distinct[0]->body_hash; });
      if (divergent) {
        findings.push_back(Finding{
            distinct[0]->file, distinct[0]->line, "R-ODR1",
            "divergent inline definitions of '" + distinct[0]->qualified_name + "(" +
                std::to_string(distinct[0]->arity) + " args)' across TUs — bodies "
                "differ, which is undefined behavior; conflicting definitions: " +
                sites});
      }
    } else {
      findings.push_back(Finding{
          distinct[0]->file, distinct[0]->line, "R-ODR1",
          "multiple definitions of '" + distinct[0]->qualified_name + "(" +
              std::to_string(distinct[0]->arity) + " args)' across translation "
              "units: " + sites});
    }
  }

  // Per-file suppressions still apply, keyed on the finding's anchor file.
  std::vector<Finding> kept;
  for (auto& finding : findings) {
    const std::size_t file_index = model.index_of(finding.file);
    if (file_index != ProjectModel::npos) {
      std::vector<Finding> one;
      one.push_back(std::move(finding));
      one = apply_suppressions(std::move(one),
                               model.files()[file_index].lex.suppressions,
                               usage ? &usage->used[file_index] : nullptr);
      if (!one.empty()) {
        kept.push_back(std::move(one.front()));
      }
    } else {
      kept.push_back(std::move(finding));
    }
  }
  return kept;
}

}  // namespace seg::lint
