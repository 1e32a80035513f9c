#include "util/lint/call_graph.h"

#include <algorithm>
#include <cctype>

namespace seg::lint {

namespace {

using Tokens = std::vector<Token>;

// Mirrors the symbol index's macro filter: ALL_CAPS call-shaped names are
// macro invocations (EXPECT_EQ, ASSERT_TRUE, ...), not functions.
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

// Keywords whose token shape is `kw (...)` but which never name a callee.
bool call_keyword(std::string_view id) {
  return id == "if" || id == "for" || id == "while" || id == "switch" ||
         id == "catch" || id == "return" || id == "sizeof" || id == "alignof" ||
         id == "decltype" || id == "static_cast" || id == "dynamic_cast" ||
         id == "const_cast" || id == "reinterpret_cast" || id == "noexcept" ||
         id == "assert" || id == "defined" || id == "alignas" || id == "new" ||
         id == "delete" || id == "throw" || id == "co_await" || id == "co_return";
}

}  // namespace

std::vector<std::size_t> CallGraph::resolve(std::string_view name,
                                            std::size_t arity) const {
  std::vector<std::size_t> exact;
  std::vector<std::size_t> same_name;
  auto it = std::lower_bound(
      by_name_.begin(), by_name_.end(), name,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
  for (; it != by_name_.end() && it->first == name; ++it) {
    same_name.push_back(it->second);
    if (index_->records()[it->second].arity == arity) {
      exact.push_back(it->second);
    }
  }
  std::vector<std::size_t>& picked = exact.empty() ? same_name : exact;
  std::sort(picked.begin(), picked.end());
  return std::move(picked);
}

CallGraph CallGraph::build(const SymbolIndex& index, const ProjectModel& model) {
  CallGraph graph;
  graph.index_ = &index;
  const auto& records = index.records();
  graph.callees_.resize(records.size());

  for (std::size_t r = 0; r < records.size(); ++r) {
    if (records[r].has_body) {
      graph.by_name_.emplace_back(records[r].name, r);
    }
  }
  std::sort(graph.by_name_.begin(), graph.by_name_.end());

  for (std::size_t r = 0; r < records.size(); ++r) {
    const SymbolRecord& record = records[r];
    if (!record.has_body || record.file_index >= model.files().size()) {
      continue;
    }
    const Tokens& toks = model.files()[record.file_index].lex.tokens;
    std::vector<std::size_t>& edges = graph.callees_[r];
    for (std::size_t i = record.body_begin + 1; i + 1 < record.body_end; ++i) {
      if (toks[i].kind != TokKind::kIdentifier || !is_punct(toks[i + 1], "(") ||
          call_keyword(toks[i].text) || macro_like(toks[i].text)) {
        continue;
      }
      // `Type name(args)` inside a body is a local declaration, not a call;
      // is_function_heading's declaration shape catches it.
      if (is_function_heading(toks, i, i + 1)) {
        continue;
      }
      const std::size_t arity = paren_list_arity(toks, i + 1);
      for (const std::size_t callee : graph.resolve(toks[i].text, arity)) {
        if (!std::count(edges.begin(), edges.end(), callee)) {
          edges.push_back(callee);
        }
      }
    }
    std::sort(edges.begin(), edges.end());
  }
  return graph;
}

}  // namespace seg::lint
