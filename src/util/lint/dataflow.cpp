#include "util/lint/dataflow.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

namespace seg::lint {

namespace {

using Tokens = std::vector<Token>;

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

bool call_keyword(std::string_view id) {
  return id == "if" || id == "for" || id == "while" || id == "switch" ||
         id == "catch" || id == "return" || id == "sizeof" || id == "alignof" ||
         id == "decltype" || id == "static_cast" || id == "dynamic_cast" ||
         id == "const_cast" || id == "reinterpret_cast" || id == "noexcept" ||
         id == "assert" || id == "defined" || id == "alignas" || id == "new" ||
         id == "delete" || id == "throw" || id == "co_await" || id == "co_return";
}

bool stream_type(std::string_view id) {
  return id == "ostream" || id == "ofstream" || id == "ostringstream" ||
         id == "stringstream" || id == "fstream" || id == "iostream" ||
         id == "FILE";
}

bool implicit_stream(std::string_view id) {
  return id == "cout" || id == "cerr" || id == "clog";
}

bool printf_like(std::string_view id) {
  return id == "printf" || id == "fprintf" || id == "dprintf" ||
         id == "fputs" || id == "fwrite" || id == "puts";
}

bool growth_call(std::string_view id) {
  return id == "push_back" || id == "emplace_back" || id == "insert" ||
         id == "emplace" || id == "push_front" || id == "emplace_front";
}

bool ordered_assoc(std::string_view id) {
  return id == "map" || id == "set" || id == "multimap" || id == "multiset";
}

/// One declared parameter of the function under analysis.
struct ParamInfo {
  std::string name;
  bool is_stream = false;    ///< ostream/FILE-family type: a sink handle
  bool is_callback = false;  ///< std::function type: the visit() pattern
  bool mutable_ref = false;  ///< non-const reference: an out-param candidate
};

std::vector<ParamInfo> parse_params(const Tokens& toks, std::size_t open) {
  const std::size_t close = skip_balanced(toks, open);  // one past `)`
  std::vector<ParamInfo> params;
  ParamInfo current;
  std::string last_ident;
  bool saw_const = false;
  bool any_token = false;
  const auto flush = [&] {
    if (any_token) {
      current.name = last_ident;
      current.mutable_ref = current.mutable_ref && !saw_const;
      params.push_back(current);
    }
    current = ParamInfo{};
    last_ident.clear();
    saw_const = false;
    any_token = false;
  };
  int depth = 0;
  bool in_default = false;
  for (std::size_t i = open + 1; i + 1 < close && i < toks.size(); ++i) {
    const Token& t = toks[i];
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
      in_default = true;
      continue;
    }
    if (in_default) {
      continue;
    }
    any_token = true;
    if (t.kind == TokKind::kIdentifier) {
      last_ident = std::string(t.text);
      if (stream_type(t.text)) current.is_stream = true;
      if (t.text == "function") current.is_callback = true;
      if (t.text == "const") saw_const = true;
    } else if (depth == 0 && (is_punct(t, "&") || is_punct(t, "*"))) {
      current.mutable_ref = true;
    }
  }
  flush();
  return params;
}

/// Mutable per-body analysis state. Ordered containers keep the scan — and
/// therefore finding order — deterministic.
struct BodyState {
  std::map<std::string, std::string, std::less<>> taint;  // name -> provenance
  std::set<std::string, std::less<>> streams;
  std::set<std::string, std::less<>> ordered;
  std::set<std::string, std::less<>> callbacks;
  std::map<std::string, std::size_t, std::less<>> out_param_pos;
};

/// Top-level argument ranges [begin, end) of the list opening at `open`.
std::vector<std::pair<std::size_t, std::size_t>> split_args(const Tokens& toks,
                                                            std::size_t open) {
  const std::size_t close = skip_balanced(toks, open);
  std::vector<std::pair<std::size_t, std::size_t>> args;
  std::size_t begin = open + 1;
  int depth = 0;
  for (std::size_t i = open + 1; i + 1 < close && i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{") || is_punct(t, "<")) {
      ++depth;
    } else if (is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}") ||
               is_punct(t, ">")) {
      --depth;
    } else if (depth == 0 && is_punct(t, ",")) {
      args.emplace_back(begin, i);
      begin = i + 1;
    }
  }
  if (close > open + 1) {
    args.emplace_back(begin, close - 1);
  }
  return args;
}

/// The scan for one function body. In fact-collection mode (`out == nullptr`)
/// it widens `facts[r]` and flips `*changed`; in emit mode it appends R-DET3
/// findings instead (facts are frozen by then).
class BodyScan {
 public:
  BodyScan(const SymbolIndex& index, const CallGraph& graph,
           const ProjectModel& model, const UnorderedDecls& decls,
           std::size_t record_index, std::vector<FunctionFacts>& facts,
           std::vector<Finding>* out, bool* changed)
      : index_(index), graph_(graph), model_(model), decls_(decls),
        r_(record_index), facts_(facts), out_(out), changed_(changed),
        record_(index.records()[record_index]),
        toks_(model.files()[record_.file_index].lex.tokens) {}

  void run() {
    const std::vector<ParamInfo> params = parse_params(toks_, record_.param_open);
    for (std::size_t p = 0; p < params.size(); ++p) {
      if (params[p].name.empty()) continue;
      if (params[p].is_stream) state_.streams.insert(params[p].name);
      if (params[p].is_callback) state_.callbacks.insert(params[p].name);
      if (params[p].mutable_ref) state_.out_param_pos[params[p].name] = p;
    }

    bool has_packaged_task = false;
    bool has_catch_ellipsis = false;
    bool has_current_exception = false;

    const std::size_t begin = record_.body_begin + 1;
    const std::size_t end = record_.body_end > 0 ? record_.body_end - 1 : 0;
    for (std::size_t i = begin; i < end && i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokKind::kIdentifier) {
        continue;
      }
      if (t.text == "packaged_task") has_packaged_task = true;
      if (t.text == "current_exception") has_current_exception = true;
      if (t.text == "catch" && i + 1 < end && is_punct(toks_[i + 1], "(")) {
        has_catch_ellipsis |= catch_is_ellipsis(i + 1);
      }

      // Local sink handles: `std::ostringstream oss;` and friends.
      if (stream_type(t.text) && i + 1 < end &&
          toks_[i + 1].kind == TokKind::kIdentifier) {
        state_.streams.insert(std::string(toks_[i + 1].text));
        continue;
      }
      // Local ordered collectors: `std::map<K, V> sorted;`.
      if (ordered_assoc(t.text) && i + 1 < end && is_punct(toks_[i + 1], "<") &&
          (i == 0 || (!is_punct(toks_[i - 1], ".") && !is_punct(toks_[i - 1], "->")))) {
        const std::size_t past = skip_template_args(toks_, i + 1);
        if (past != i + 1) {
          std::size_t j = past;
          while (j < end && (is_punct(toks_[j], "&") || is_punct(toks_[j], "*") ||
                             is_id(toks_[j], "const"))) {
            ++j;
          }
          if (j < end && toks_[j].kind == TokKind::kIdentifier) {
            state_.ordered.insert(std::string(toks_[j].text));
          }
        }
        continue;
      }
      // `std::sort(keys.begin(), ...)` pins the order: the first argument's
      // container is deterministic from here on.
      if ((t.text == "sort" || t.text == "stable_sort") && i + 1 < end &&
          is_punct(toks_[i + 1], "(")) {
        const auto args = split_args(toks_, i + 1);
        if (!args.empty()) {
          for (std::size_t j = args[0].first; j < args[0].second; ++j) {
            if (toks_[j].kind == TokKind::kIdentifier) {
              state_.taint.erase(std::string(toks_[j].text));
            }
          }
        }
        continue;
      }
      if (t.text == "for" && i + 1 < end && is_punct(toks_[i + 1], "(")) {
        scan_range_for(i);
        continue;
      }
      if (t.text == "return") {
        scan_return(i, end);
        continue;
      }
      // Sink: stream insertion chain.
      if ((state_.streams.count(t.text) != 0 || implicit_stream(t.text)) &&
          i + 1 < end && is_punct(toks_[i + 1], "<<")) {
        scan_stream_chain(i, end);
        continue;
      }
      // Sink: printf-family call.
      if (printf_like(t.text) && i + 1 < end && is_punct(toks_[i + 1], "(")) {
        scan_printf(i);
        continue;
      }
      // Callback invocation: `fn(key, days)` where fn is a std::function
      // parameter — whoever passed fn sees these values.
      if (state_.callbacks.count(t.text) != 0 && i + 1 < end &&
          is_punct(toks_[i + 1], "(")) {
        scan_callback_invocation(i);
        continue;
      }
      // Growth: `target.push_back(key)` — taint flows into `target`.
      if (i + 3 < end && is_punct(toks_[i + 1], ".") &&
          toks_[i + 2].kind == TokKind::kIdentifier &&
          growth_call(toks_[i + 2].text) && is_punct(toks_[i + 3], "(")) {
        scan_growth(i);
        // fall through: `target.insert(...)` is not also a resolvable call
        continue;
      }
      // General call site: returned taint, out-param taint, callback expose.
      if (i + 1 < end && is_punct(toks_[i + 1], "(") && !call_keyword(t.text) &&
          !macro_like(t.text) && !is_function_heading(toks_, i, i + 1)) {
        scan_call(i);
      }
    }

    if (has_packaged_task || (has_catch_ellipsis && has_current_exception)) {
      if (!facts_[r_].routes_exceptions) {
        facts_[r_].routes_exceptions = true;
        mark_changed();
      }
    }
  }

 private:
  void mark_changed() {
    if (changed_ != nullptr) {
      *changed_ = true;
    }
  }

  bool catch_is_ellipsis(std::size_t open) const {
    const std::size_t close = skip_balanced(toks_, open);
    bool any = false;
    for (std::size_t j = open + 1; j + 1 < close; ++j) {
      if (toks_[j].text != "..." && toks_[j].text != ".") {
        return false;
      }
      any = true;
    }
    return any;
  }

  void add_taint(std::string_view name, const std::string& origin) {
    state_.taint.emplace(std::string(name), origin);
  }

  const std::string* tainted(std::string_view name) const {
    const auto it = state_.taint.find(name);
    return it == state_.taint.end() ? nullptr : &it->second;
  }

  void emit(std::size_t line, std::string message) {
    if (out_ != nullptr) {
      out_->push_back(Finding{record_.file, line, "R-DET3", std::move(message)});
    }
  }

  /// Taint provenance of a call expression `name(...)` at `i`, when any
  /// resolved callee taints its return; nullptr otherwise.
  const FunctionFacts* callee_return_taint(std::size_t i) const {
    if (toks_[i].kind != TokKind::kIdentifier || i + 1 >= toks_.size() ||
        !is_punct(toks_[i + 1], "(") || call_keyword(toks_[i].text) ||
        macro_like(toks_[i].text)) {
      return nullptr;
    }
    const std::size_t arity = paren_list_arity(toks_, i + 1);
    for (const std::size_t callee : graph_.resolve(toks_[i].text, arity)) {
      if (facts_[callee].taints_return) {
        return &facts_[callee];
      }
    }
    return nullptr;
  }

  void scan_range_for(std::size_t i) {
    const std::size_t close = skip_balanced(toks_, i + 1);  // one past `)`
    std::size_t colon = 0;
    int depth = 0;
    for (std::size_t j = i + 1; j < close && j < toks_.size(); ++j) {
      if (is_punct(toks_[j], "(")) {
        ++depth;
      } else if (is_punct(toks_[j], ")")) {
        --depth;
      } else if (depth == 1 && is_punct(toks_[j], ":")) {
        colon = j;
      } else if (depth == 1 && is_punct(toks_[j], ";")) {
        colon = 0;  // classic for-loop; not a range-for
      }
    }
    if (colon == 0) {
      return;
    }
    // Source: a bare unordered container (declared, aliased, or a tainted
    // local) in the range expression; a member access or call on it
    // iterates a derived value, not the hash table.
    std::string origin;
    std::string source;
    for (std::size_t j = colon + 1; j + 1 < close; ++j) {
      if (toks_[j].kind != TokKind::kIdentifier) {
        continue;
      }
      if (j + 1 < close && (is_punct(toks_[j + 1], ".") || is_punct(toks_[j + 1], "->") ||
                            is_punct(toks_[j + 1], "(") || is_punct(toks_[j + 1], "["))) {
        continue;
      }
      if (const std::string* o = tainted(toks_[j].text)) {
        origin = *o;
        source = std::string(toks_[j].text);
        break;
      }
      if (decls_.has_name(toks_[j].text) || decls_.has_alias(toks_[j].text)) {
        source = std::string(toks_[j].text);
        origin = "iteration over unordered '" + source + "'";
        break;
      }
    }
    // Bind the loop variables: `[key, days]` structured bindings, or the
    // last identifier before the colon. A loop over a clean source REBINDS
    // the names — clearing any taint a previous loop left on them (the
    // collect-sort-emit pattern reuses binding names).
    const auto bind = [&](std::string_view name) {
      if (source.empty()) {
        state_.taint.erase(std::string(name));
      } else {
        add_taint(name, origin);
      }
    };
    bool bound = false;
    for (std::size_t j = i + 2; j < colon; ++j) {
      if (is_punct(toks_[j], "[")) {
        const std::size_t bracket_close = skip_balanced(toks_, j);
        for (std::size_t k = j + 1; k + 1 < bracket_close; ++k) {
          if (toks_[k].kind == TokKind::kIdentifier) {
            bind(toks_[k].text);
            bound = true;
          }
        }
        break;
      }
    }
    if (!bound) {
      for (std::size_t j = colon; j-- > i + 2;) {
        if (toks_[j].kind == TokKind::kIdentifier) {
          bind(toks_[j].text);
          break;
        }
      }
    }
  }

  void scan_return(std::size_t i, std::size_t end) {
    for (std::size_t j = i + 1; j < end && !is_punct(toks_[j], ";"); ++j) {
      if (toks_[j].kind != TokKind::kIdentifier) {
        continue;
      }
      if (const std::string* o = tainted(toks_[j].text)) {
        if (!facts_[r_].taints_return) {
          facts_[r_].taints_return = true;
          facts_[r_].return_origin = *o;
          mark_changed();
        }
        return;
      }
      if (const FunctionFacts* callee = callee_return_taint(j)) {
        if (!facts_[r_].taints_return) {
          facts_[r_].taints_return = true;
          facts_[r_].return_origin = callee->return_origin;
          mark_changed();
        }
        return;
      }
    }
  }

  void scan_stream_chain(std::size_t i, std::size_t end) {
    const std::string sink(toks_[i].text);
    std::set<std::string, std::less<>> reported;
    int depth = 0;
    for (std::size_t j = i + 2; j < end; ++j) {
      if (is_punct(toks_[j], "(") || is_punct(toks_[j], "[") || is_punct(toks_[j], "{")) {
        ++depth;
      } else if (is_punct(toks_[j], ")") || is_punct(toks_[j], "]") ||
                 is_punct(toks_[j], "}")) {
        --depth;
        if (depth < 0) break;
      } else if (depth == 0 && is_punct(toks_[j], ";")) {
        break;
      }
      if (toks_[j].kind != TokKind::kIdentifier) {
        continue;
      }
      if (const std::string* o = tainted(toks_[j].text)) {
        if (reported.insert(std::string(toks_[j].text)).second) {
          emit(toks_[j].line,
               "unordered-iteration value '" + std::string(toks_[j].text) +
                   "' reaches output stream '" + sink + "' (" + *o +
                   "): hash-table traversal order leaks into the serialized "
                   "bytes; sort first or collect into an ordered container");
        }
      } else if (const FunctionFacts* callee = callee_return_taint(j)) {
        if (reported.insert(std::string(toks_[j].text)).second) {
          emit(toks_[j].line,
               "value returned by '" + std::string(toks_[j].text) +
                   "' reaches output stream '" + sink + "' (" +
                   callee->return_origin + "): hash-table traversal order "
                   "leaks into the serialized bytes; sort before emitting");
        }
      }
    }
  }

  void scan_printf(std::size_t i) {
    const std::string sink(toks_[i].text);
    for (const auto& [abegin, aend] : split_args(toks_, i + 1)) {
      for (std::size_t j = abegin; j < aend; ++j) {
        if (toks_[j].kind != TokKind::kIdentifier) {
          continue;
        }
        if (const std::string* o = tainted(toks_[j].text)) {
          emit(toks_[j].line,
               "unordered-iteration value '" + std::string(toks_[j].text) +
                   "' reaches " + sink + "() (" + *o +
                   "): hash-table traversal order leaks into the serialized "
                   "bytes; sort first or collect into an ordered container");
        }
      }
    }
  }

  void scan_callback_invocation(std::size_t i) {
    for (const auto& [abegin, aend] : split_args(toks_, i + 1)) {
      for (std::size_t j = abegin; j < aend; ++j) {
        if (toks_[j].kind != TokKind::kIdentifier) {
          continue;
        }
        if (const std::string* o = tainted(toks_[j].text)) {
          if (!facts_[r_].exposes_callback) {
            facts_[r_].exposes_callback = true;
            facts_[r_].callback_origin = *o;
            mark_changed();
          }
          return;
        }
      }
    }
  }

  void scan_growth(std::size_t i) {
    const std::string* origin = nullptr;
    for (const auto& [abegin, aend] : split_args(toks_, i + 3)) {
      for (std::size_t j = abegin; j < aend; ++j) {
        if (toks_[j].kind == TokKind::kIdentifier) {
          if (const std::string* o = tainted(toks_[j].text)) {
            origin = o;
            break;
          }
        }
      }
      if (origin != nullptr) break;
    }
    if (origin == nullptr) {
      return;
    }
    const std::string_view target = toks_[i].text;
    if (state_.ordered.count(target) != 0) {
      return;  // collected into an ordered container: neutralized
    }
    const auto out_it = state_.out_param_pos.find(target);
    if (out_it != state_.out_param_pos.end()) {
      auto& outs = facts_[r_].tainted_out_params;
      const bool known = std::any_of(outs.begin(), outs.end(),
                                     [&](const auto& p) { return p.first == out_it->second; });
      if (!known) {
        outs.emplace_back(out_it->second, *origin);
        mark_changed();
      }
      return;
    }
    add_taint(target, *origin);
  }

  void scan_call(std::size_t i) {
    const std::size_t arity = paren_list_arity(toks_, i + 1);
    const std::vector<std::size_t> callees = graph_.resolve(toks_[i].text, arity);
    if (callees.empty()) {
      return;
    }
    const auto args = split_args(toks_, i + 1);
    for (const std::size_t c : callees) {
      const FunctionFacts& cf = facts_[c];
      if (cf.taints_return && i >= 2 && is_punct(toks_[i - 1], "=") &&
          toks_[i - 2].kind == TokKind::kIdentifier) {
        add_taint(toks_[i - 2].text,
                  "value returned by '" + index_.records()[c].qualified_name +
                      "' (" + cf.return_origin + ")");
      }
      for (const auto& [pos, origin] : cf.tainted_out_params) {
        if (pos >= args.size()) continue;
        // Only a bare (possibly &-qualified) identifier argument receives
        // the taint; expressions are left alone.
        std::size_t j = args[pos].first;
        if (j < args[pos].second && is_punct(toks_[j], "&")) ++j;
        if (j + 1 == args[pos].second && toks_[j].kind == TokKind::kIdentifier) {
          add_taint(toks_[j].text,
                    "grown by '" + index_.records()[c].qualified_name + "' (" +
                        origin + ")");
        }
      }
      if (cf.exposes_callback) {
        scan_exposed_lambda(i, cf, index_.records()[c].qualified_name);
      }
    }
  }

  /// `visit(..., [&](const Key& key, ...) { out << key; })`: the callee
  /// hands unordered-iteration values to the lambda's parameters, so sinks
  /// inside the lambda body are R-DET3 findings.
  void scan_exposed_lambda(std::size_t call, const FunctionFacts& cf,
                           const std::string& callee_name) {
    for (const auto& [abegin, aend] : split_args(toks_, call + 1)) {
      if (abegin >= aend || !is_punct(toks_[abegin], "[")) {
        continue;
      }
      const std::size_t cap_end = skip_balanced(toks_, abegin);  // one past `]`
      if (cap_end >= aend || !is_punct(toks_[cap_end], "(")) {
        continue;
      }
      const std::vector<ParamInfo> lparams = parse_params(toks_, cap_end);
      std::set<std::string, std::less<>> exposed;
      for (const auto& p : lparams) {
        if (!p.name.empty()) {
          exposed.insert(p.name);
        }
      }
      if (exposed.empty()) {
        continue;
      }
      std::size_t body = skip_balanced(toks_, cap_end);  // one past `)`
      while (body < aend && !is_punct(toks_[body], "{")) {
        ++body;
      }
      if (body >= aend) {
        continue;
      }
      const std::size_t body_end = skip_balanced(toks_, body);
      for (std::size_t j = body + 1; j + 1 < body_end; ++j) {
        const Token& t = toks_[j];
        if (t.kind != TokKind::kIdentifier) {
          continue;
        }
        const bool is_sink =
            ((state_.streams.count(t.text) != 0 || implicit_stream(t.text)) &&
             j + 1 < body_end && is_punct(toks_[j + 1], "<<")) ||
            (printf_like(t.text) && j + 1 < body_end && is_punct(toks_[j + 1], "("));
        if (!is_sink) {
          continue;
        }
        for (std::size_t k = j + 1; k + 1 < body_end && !is_punct(toks_[k], ";"); ++k) {
          if (toks_[k].kind == TokKind::kIdentifier &&
              exposed.count(toks_[k].text) != 0) {
            emit(toks_[k].line,
                 "unordered-iteration value '" + std::string(toks_[k].text) +
                     "' (via callback from '" + callee_name + "'; " +
                     cf.callback_origin + ") reaches a serialization sink: "
                     "sort first or collect into an ordered container");
            j = k;  // one finding per sink statement
            break;
          }
        }
      }
    }
  }

  const SymbolIndex& index_;
  const CallGraph& graph_;
  const ProjectModel& model_;
  const UnorderedDecls& decls_;
  const std::size_t r_;
  std::vector<FunctionFacts>& facts_;
  std::vector<Finding>* out_;
  bool* changed_;
  const SymbolRecord& record_;
  const Tokens& toks_;
  BodyState state_;
};

bool analyzable(const SymbolRecord& record, const ProjectModel& model) {
  return record.has_body && record.file_index < model.files().size() &&
         record.body_end > record.body_begin;
}

}  // namespace

DataflowResult run_dataflow(const SymbolIndex& index, const CallGraph& graph,
                            const ProjectModel& model,
                            const std::vector<UnorderedDecls>& closure_decls) {
  DataflowResult result;
  const auto& records = index.records();
  result.facts.resize(records.size());

  // Facts only widen and origins are set once, so the fixed point is
  // reached in at most (longest acyclic call chain) rounds; the cap is a
  // recursion backstop.
  constexpr std::size_t kMaxRounds = 8;
  for (std::size_t round = 0; round < kMaxRounds; ++round) {
    bool changed = false;
    for (std::size_t r = 0; r < records.size(); ++r) {
      if (!analyzable(records[r], model)) continue;
      BodyScan(index, graph, model, closure_decls[records[r].file_index], r,
               result.facts, nullptr, &changed)
          .run();
    }
    // Exception routing propagates through plain calls: a thread body that
    // just calls worker_loop() is safe when worker_loop routes.
    for (std::size_t r = 0; r < records.size(); ++r) {
      if (result.facts[r].routes_exceptions) continue;
      for (const std::size_t callee : graph.callees()[r]) {
        if (result.facts[callee].routes_exceptions) {
          result.facts[r].routes_exceptions = true;
          changed = true;
          break;
        }
      }
    }
    if (!changed) {
      break;
    }
  }

  for (std::size_t r = 0; r < records.size(); ++r) {
    if (!analyzable(records[r], model)) continue;
    BodyScan(index, graph, model, closure_decls[records[r].file_index], r,
             result.facts, &result.det3, nullptr)
        .run();
  }
  std::sort(result.det3.begin(), result.det3.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.message < b.message;
            });
  result.det3.erase(std::unique(result.det3.begin(), result.det3.end(),
                                [](const Finding& a, const Finding& b) {
                                  return a.file == b.file && a.line == b.line &&
                                         a.message == b.message;
                                }),
                    result.det3.end());
  return result;
}

std::vector<Finding> check_thread_exceptions(const SymbolIndex& index,
                                             const CallGraph& graph,
                                             const ProjectModel& model,
                                             const DataflowResult& flow) {
  // Names declared anywhere as vector<...thread...>: emplacing into one is
  // a thread launch site even when the vector is a member (workers_).
  std::vector<std::string> thread_vectors;
  for (const auto& file : model.files()) {
    const auto& toks = file.lex.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!is_id(toks[i], "vector") || !is_punct(toks[i + 1], "<")) {
        continue;
      }
      const std::size_t past = skip_template_args(toks, i + 1);
      if (past == i + 1) {
        continue;
      }
      bool holds_thread = false;
      for (std::size_t j = i + 2; j + 1 < past; ++j) {
        holds_thread |= is_id(toks[j], "thread") || is_id(toks[j], "jthread");
      }
      if (!holds_thread) {
        continue;
      }
      std::size_t j = past;
      while (j < toks.size() && (is_punct(toks[j], "&") || is_punct(toks[j], "*") ||
                                 is_id(toks[j], "const"))) {
        ++j;
      }
      if (j < toks.size() && toks[j].kind == TokKind::kIdentifier &&
          std::find(thread_vectors.begin(), thread_vectors.end(), toks[j].text) ==
              thread_vectors.end()) {
        thread_vectors.emplace_back(toks[j].text);
      }
    }
  }

  const auto routes = [&](std::string_view name) {
    // Unresolvable names (library calls) stay silent; resolvable ones must
    // have at least one routing definition.
    const auto targets = graph.resolve(name, static_cast<std::size_t>(-1));
    if (targets.empty()) {
      return true;
    }
    return std::any_of(targets.begin(), targets.end(), [&](std::size_t t) {
      return flow.facts[t].routes_exceptions;
    });
  };

  const auto lambda_routes = [&](const std::vector<Token>& toks, std::size_t begin,
                                 std::size_t end) {
    bool has_packaged_task = false;
    bool has_catch_ellipsis = false;
    bool has_current_exception = false;
    bool delegates = false;
    for (std::size_t j = begin; j < end; ++j) {
      if (toks[j].kind != TokKind::kIdentifier) continue;
      if (toks[j].text == "packaged_task") has_packaged_task = true;
      if (toks[j].text == "current_exception") has_current_exception = true;
      if (toks[j].text == "catch" && j + 1 < end && is_punct(toks[j + 1], "(")) {
        const std::size_t close = skip_balanced(toks, j + 1);
        bool ellipsis = close > j + 2;
        for (std::size_t k = j + 2; k + 1 < close; ++k) {
          ellipsis &= toks[k].text == "..." || toks[k].text == ".";
        }
        has_catch_ellipsis |= ellipsis;
      }
      if (j + 1 < end && is_punct(toks[j + 1], "(") && !call_keyword(toks[j].text) &&
          !macro_like(toks[j].text)) {
        const auto targets = graph.resolve(toks[j].text, static_cast<std::size_t>(-1));
        delegates |= std::any_of(targets.begin(), targets.end(), [&](std::size_t t) {
          return flow.facts[t].routes_exceptions;
        });
      }
    }
    return has_packaged_task || (has_catch_ellipsis && has_current_exception) ||
           delegates;
  };

  std::vector<Finding> findings;
  const auto check_site = [&](const std::vector<Token>& toks, std::size_t open,
                              const std::string& file, std::size_t line) {
    const auto args = split_args(toks, open);
    if (args.empty()) {
      return;
    }
    std::size_t j = args[0].first;
    if (j < args[0].second && is_punct(toks[j], "[")) {
      // Inline lambda body.
      std::size_t body = skip_balanced(toks, j);  // past `]`
      if (body < args[0].second && is_punct(toks[body], "(")) {
        body = skip_balanced(toks, body);
      }
      while (body < args[0].second && !is_punct(toks[body], "{")) {
        ++body;
      }
      if (body >= args[0].second) {
        return;
      }
      const std::size_t body_end = skip_balanced(toks, body);
      if (!lambda_routes(toks, body + 1, body_end > 0 ? body_end - 1 : 0)) {
        findings.push_back(Finding{
            file, line, "R-EXC1",
            "thread body does not route exceptions to the owner: wrap the "
            "work in std::packaged_task, or catch (...) and hand the "
            "std::current_exception over — an exception escaping a thread "
            "calls std::terminate"});
      }
      return;
    }
    // Named entry point (possibly &Class::method): judge the last
    // identifier of the first argument.
    std::string_view name;
    for (std::size_t k = args[0].first; k < args[0].second; ++k) {
      if (toks[k].kind == TokKind::kIdentifier) {
        name = toks[k].text;
      }
    }
    if (!name.empty() && !routes(name)) {
      findings.push_back(Finding{
          file, line, "R-EXC1",
          "thread entry point '" + std::string(name) + "' does not route "
          "exceptions to the owner (no std::packaged_task and no catch (...) "
          "/ std::current_exception on any path) — an exception escaping a "
          "thread calls std::terminate"});
    }
  };

  const auto& records = index.records();
  for (std::size_t r = 0; r < records.size(); ++r) {
    const SymbolRecord& record = records[r];
    if (!analyzable(record, model)) continue;
    const auto& toks = model.files()[record.file_index].lex.tokens;
    const std::size_t end = record.body_end - 1;
    for (std::size_t i = record.body_begin + 1; i < end && i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdentifier) {
        continue;
      }
      if (is_id(toks[i], "thread")) {
        // `std::thread t(...)` or a temporary `std::thread(...)`.
        if (i + 1 < end && is_punct(toks[i + 1], "(")) {
          check_site(toks, i + 1, record.file, toks[i].line);
        } else if (i + 2 < end && toks[i + 1].kind == TokKind::kIdentifier &&
                   is_punct(toks[i + 2], "(")) {
          check_site(toks, i + 2, record.file, toks[i].line);
        }
        continue;
      }
      if (std::find(thread_vectors.begin(), thread_vectors.end(), toks[i].text) !=
              thread_vectors.end() &&
          i + 3 < end && is_punct(toks[i + 1], ".") &&
          (is_id(toks[i + 2], "emplace_back") || is_id(toks[i + 2], "push_back")) &&
          is_punct(toks[i + 3], "(")) {
        check_site(toks, i + 3, record.file, toks[i].line);
      }
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.message < b.message;
            });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.message == b.message;
                             }),
                 findings.end());
  return findings;
}

}  // namespace seg::lint
