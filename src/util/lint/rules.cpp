#include "util/lint/rules.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <string_view>

namespace seg::lint {

using Tokens = std::vector<Token>;

bool is_id(const Token& tok, std::string_view text) {
  return tok.kind == TokKind::kIdentifier && tok.text == text;
}

bool is_punct(const Token& tok, std::string_view text) {
  return tok.kind == TokKind::kPunct && tok.text == text;
}

std::size_t skip_balanced(const Tokens& toks, std::size_t open) {
  const std::string_view opener = toks[open].text;
  const std::string_view closer = opener == "(" ? ")" : opener == "[" ? "]" : "}";
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], opener)) {
      ++depth;
    } else if (is_punct(toks[i], closer)) {
      if (--depth == 0) {
        return i + 1;
      }
    }
  }
  return toks.size();
}

bool non_type_keyword(std::string_view id) {
  static constexpr std::array<std::string_view, 12> kKeywords = {
      "return", "co_return", "throw",    "delete", "new",      "case",
      "goto",   "operator",  "else",     "do",     "co_await", "co_yield"};
  return std::find(kKeywords.begin(), kKeywords.end(), id) != kKeywords.end();
}

std::size_t paren_list_arity(const Tokens& toks, std::size_t open) {
  const std::size_t close = skip_balanced(toks, open);
  if (close == open + 2) {
    return 0;
  }
  std::size_t arity = 1;
  int depth = 0;
  for (std::size_t i = open; i + 1 < close; ++i) {
    if (is_punct(toks[i], "(") || is_punct(toks[i], "[") || is_punct(toks[i], "{")) {
      ++depth;
    } else if (is_punct(toks[i], ")") || is_punct(toks[i], "]") ||
               is_punct(toks[i], "}")) {
      --depth;
    } else if (depth == 1 && is_punct(toks[i], ",")) {
      ++arity;
    }
  }
  return arity;
}

bool is_function_heading(const Tokens& toks, std::size_t name, std::size_t open) {
  std::size_t i = skip_balanced(toks, open);
  while (i < toks.size() &&
         (is_id(toks[i], "const") || is_id(toks[i], "noexcept") ||
          is_id(toks[i], "override") || is_id(toks[i], "final") || is_punct(toks[i], "&") ||
          is_punct(toks[i], "&&"))) {
    ++i;
  }
  if (i < toks.size() && is_punct(toks[i], "{")) {
    return true;  // definition body
  }
  // Declaration: a type-like token directly precedes the name (calls are
  // preceded by punctuation such as `.`/`->`/`=`/`(`/`,`/`;` or `return`).
  if (name > 0) {
    const auto& prev = toks[name - 1];
    if ((prev.kind == TokKind::kIdentifier && !non_type_keyword(prev.text)) ||
        is_punct(prev, ">") || is_punct(prev, "*") || is_punct(prev, "&")) {
      return true;
    }
  }
  return false;
}

// Skips a balanced template-argument list starting at `open` (which must
// point at `<`). Returns the index just past the matching `>`, or `open`
// when the angle bracket never closes in a plausible span (then it was a
// comparison, not a template). `>>` closes two levels.
std::size_t skip_template_args(const Tokens& toks, std::size_t open) {
  constexpr std::size_t kMaxSpan = 160;
  int depth = 0;
  for (std::size_t i = open; i < toks.size() && i < open + kMaxSpan; ++i) {
    const auto& t = toks[i];
    if (is_punct(t, "<") || is_punct(t, "<<")) {
      depth += t.text == "<<" ? 2 : 1;
    } else if (is_punct(t, ">") || is_punct(t, ">>")) {
      depth -= t.text == ">>" ? 2 : 1;
      if (depth <= 0) {
        return i + 1;
      }
    } else if (is_punct(t, ";") || is_punct(t, "{")) {
      return open;  // statement ended: not a template argument list
    }
  }
  return open;
}

bool is_unordered_container(std::string_view id) {
  return id == "unordered_map" || id == "unordered_set" ||
         id == "unordered_multimap" || id == "unordered_multiset";
}

namespace {

bool contains(const std::vector<std::string>& haystack, std::string_view needle) {
  return std::find(haystack.begin(), haystack.end(), needle) != haystack.end();
}

bool path_has(const FileInfo& info, std::string_view part) {
  return info.path.find(part) != std::string::npos;
}

// --- R-DET1 ---------------------------------------------------------------

// True when the call at `i` is qualified by something other than `std`
// (member call `obj.rand()` or foreign namespace `foo::rand()`).
bool foreign_qualified(const Tokens& toks, std::size_t i) {
  if (i == 0) {
    return false;
  }
  const auto& prev = toks[i - 1];
  if (is_punct(prev, ".") || is_punct(prev, "->")) {
    return true;
  }
  if (is_punct(prev, "::")) {
    return !(i >= 2 && is_id(toks[i - 2], "std"));
  }
  return false;
}

// Path substrings whose files may read clocks / entropy: measuring time is
// their job.
constexpr std::array<std::string_view, 4> kTimingAllowlist = {
    "util/obs", "util/logging", "util/lint", "bench_common",
};

void rule_det1(const FileInfo& info, const Tokens& toks, std::vector<Finding>& out) {
  if (std::any_of(kTimingAllowlist.begin(), kTimingAllowlist.end(),
                  [&](std::string_view part) { return path_has(info, part); })) {
    return;
  }
  const auto flag = [&](std::size_t i, std::string message) {
    out.push_back(Finding{info.path, toks[i].line, "R-DET1", std::move(message)});
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const auto& t = toks[i];
    if (t.kind != TokKind::kIdentifier) {
      continue;
    }
    if ((t.text == "rand" || t.text == "srand") && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "(") && !foreign_qualified(toks, i)) {
      flag(i, std::string(t.text) + "() draws from ambient global state; use the "
                                    "seeded seg::util RNG so runs are reproducible");
    } else if (t.text == "random_device" && !foreign_qualified(toks, i)) {
      flag(i, "std::random_device is nondeterministic; seed a util::Rng explicitly");
    } else if (t.text == "time" && i + 2 < toks.size() && is_punct(toks[i + 1], "(") &&
               (is_id(toks[i + 2], "nullptr") || is_id(toks[i + 2], "NULL") ||
                toks[i + 2].text == "0") &&
               !foreign_qualified(toks, i)) {
      flag(i, "time(nullptr) reads the wall clock in pipeline code; pass the day/"
              "timestamp in from the caller");
    } else if (t.text == "system_clock" && i + 2 < toks.size() &&
               is_punct(toks[i + 1], "::") && is_id(toks[i + 2], "now")) {
      flag(i, "system_clock::now() in pipeline code makes output depend on run "
              "time; open a seg::obs::Span for instrumentation");
    }
  }
}

// --- R-OBS1 ---------------------------------------------------------------

// The obs layer, the one place raw timing primitives are allowed.
constexpr std::string_view kObsLayerPath = "util/obs/";

void rule_obs1(const FileInfo& info, const Tokens& toks, std::vector<Finding>& out) {
  if (path_has(info, kObsLayerPath)) {
    return;
  }
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const auto& t = toks[i];
    if (t.kind != TokKind::kIdentifier) {
      continue;
    }
    if (t.text == "steady_clock" || t.text == "high_resolution_clock") {
      out.push_back(Finding{
          info.path, t.line, "R-OBS1",
          std::string(t.text) + " read outside the obs layer: open a "
          "seg::obs::Span (or a metric) so the timing shows up in traces and "
          "run reports"});
    } else if (t.text == "Stopwatch") {
      out.push_back(Finding{
          info.path, t.line, "R-OBS1",
          "Stopwatch is obs-internal; time the region with a seg::obs::Span "
          "so the measurement is exported with the trace/run report"});
    }
  }
}

// --- R-MEM1 ---------------------------------------------------------------

// The mmap wrapper, the one place raw mapping syscalls are allowed.
constexpr std::string_view kMmapWrapperPath = "util/mmap_file";

void rule_mem1(const FileInfo& info, const Tokens& toks, std::vector<Finding>& out) {
  if (path_has(info, kMmapWrapperPath)) {
    return;
  }
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const auto& t = toks[i];
    if (t.kind != TokKind::kIdentifier) {
      continue;
    }
    const bool mapping_call =
        (t.text == "mmap" || t.text == "munmap" || t.text == "mremap" ||
         t.text == "madvise" || t.text == "mbind") &&
        i + 1 < toks.size() && is_punct(toks[i + 1], "(");
    const bool mapping_syscall_nr =
        t.text == "__NR_mmap" || t.text == "__NR_munmap" ||
        t.text == "__NR_mremap" || t.text == "__NR_madvise" ||
        t.text == "__NR_mbind";
    if (mapping_call || mapping_syscall_nr) {
      out.push_back(Finding{
          info.path, t.line, "R-MEM1",
          std::string(t.text) + " issued outside util/mmap_file: map through "
          "util::MmapFile so unmapping and page release are handled in one "
          "place"});
    }
  }
}

// --- R-WIRE1 --------------------------------------------------------------
//
// The dns/wire parsers take untrusted bytes straight off the network, so
// every bounds check must live in one place: dns/wire/bytes.h::ByteCursor.
// On the wire surface (kWirePath), subscripting a raw byte buffer with a
// computed index, or doing pointer arithmetic on a raw byte pointer, is a
// finding. Literal-index subscripts (rdata[0] ... rdata[3]) are fixed-lane
// extraction from an already bounds-checked take() and stay legal; the
// ByteCursor implementation itself (kByteCursorPath) is allowlisted.

constexpr std::string_view kWirePath = "dns/wire/";
constexpr std::string_view kByteCursorPath = "dns/wire/bytes";

// True when the template argument list starting at `open` (pointing at `<`)
// spells a byte element type: `unsigned char`, `uint8_t`, or `byte`.
bool byte_template_args(const Tokens& toks, std::size_t open, std::size_t past) {
  for (std::size_t j = open + 1; j + 1 < past; ++j) {
    if (toks[j].kind != TokKind::kIdentifier) {
      continue;
    }
    if (toks[j].text == "uint8_t" || toks[j].text == "byte") {
      return true;
    }
    if (toks[j].text == "unsigned" && j + 1 < past && is_id(toks[j + 1], "char")) {
      return true;
    }
  }
  return false;
}

void rule_wire1(const FileInfo& info, const Tokens& toks, std::vector<Finding>& out) {
  if (!path_has(info, kWirePath) || path_has(info, kByteCursorPath)) {
    return;
  }
  std::vector<std::string> buffers;   // span-typed / take()-derived views
  std::vector<std::string> pointers;  // raw byte pointers
  const auto record = [&](std::size_t at, std::vector<std::string>& into) {
    std::size_t j = at;
    while (j < toks.size() &&
           (is_punct(toks[j], "&") || is_punct(toks[j], "*") ||
            is_punct(toks[j], "&&") || is_id(toks[j], "const"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokKind::kIdentifier &&
        !contains(into, toks[j].text)) {
      into.emplace_back(toks[j].text);
    }
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const auto& t = toks[i];
    if (t.kind != TokKind::kIdentifier) {
      continue;
    }
    // `span<const unsigned char> name` (params, locals, members).
    if (t.text == "span" && i + 1 < toks.size() && is_punct(toks[i + 1], "<")) {
      const std::size_t past = skip_template_args(toks, i + 1);
      if (past != i + 1 && byte_template_args(toks, i + 1, past)) {
        record(past, buffers);
      }
      continue;
    }
    // `const unsigned char* p` / `const uint8_t* p`.
    if ((t.text == "char" && i >= 1 && is_id(toks[i - 1], "unsigned")) ||
        t.text == "uint8_t") {
      if (i + 2 < toks.size() && is_punct(toks[i + 1], "*") &&
          toks[i + 2].kind == TokKind::kIdentifier) {
        record(i + 1, pointers);
      }
      continue;
    }
    // `name = <expr>.take(...)` / `name = <expr>.buffer(...)`: the result
    // views raw parser bytes.
    if ((t.text == "take" || t.text == "buffer") && i >= 1 &&
        is_punct(toks[i - 1], ".") && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "(") && i >= 4 && is_punct(toks[i - 3], "=") &&
        toks[i - 4].kind == TokKind::kIdentifier) {
      if (!contains(buffers, toks[i - 4].text)) {
        buffers.emplace_back(toks[i - 4].text);
      }
    }
  }
  if (buffers.empty() && pointers.empty()) {
    return;
  }
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier) {
      continue;
    }
    const bool is_buffer = contains(buffers, toks[i].text);
    const bool is_pointer = contains(pointers, toks[i].text);
    if (!is_buffer && !is_pointer) {
      continue;
    }
    // Declarations re-match their own name; only uses matter, and a use is
    // never directly preceded by a type-ish token.
    if (i >= 1 && (toks[i - 1].kind == TokKind::kIdentifier ||
                   is_punct(toks[i - 1], ">") || is_punct(toks[i - 1], "*"))) {
      continue;
    }
    if (i + 1 < toks.size() && is_punct(toks[i + 1], "[")) {
      const std::size_t close = skip_balanced(toks, i + 1);
      const bool literal_index =
          close == i + 4 && toks[i + 2].kind == TokKind::kNumber;
      if (!literal_index) {
        out.push_back(Finding{
            info.path, toks[i].line, "R-WIRE1",
            "computed subscript on raw parser bytes '" + std::string(toks[i].text) +
                "[...]': index through dns/wire/bytes.h ByteCursor (u8_at/"
                "view_at) so every bounds check on untrusted input lives in "
                "one place"});
      }
      continue;
    }
    if (is_pointer && i + 1 < toks.size() &&
        (is_punct(toks[i + 1], "++") || is_punct(toks[i + 1], "--") ||
         is_punct(toks[i + 1], "+=") || is_punct(toks[i + 1], "-=") ||
         is_punct(toks[i + 1], "+") || is_punct(toks[i + 1], "-"))) {
      out.push_back(Finding{
          info.path, toks[i].line, "R-WIRE1",
          "pointer arithmetic on raw parser bytes '" + std::string(toks[i].text) +
              "': advance a dns/wire/bytes.h ByteCursor instead so the bounds "
              "check cannot be skipped"});
    }
  }
}

// --- R-RACE1 --------------------------------------------------------------

void rule_race1(const FileInfo& info, const Tokens& toks, std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (is_id(toks[i], "vector") && is_punct(toks[i + 1], "<") &&
        is_id(toks[i + 2], "bool") && is_punct(toks[i + 3], ">")) {
      out.push_back(Finding{
          info.path, toks[i].line, "R-RACE1",
          "std::vector<bool> packs elements into shared words, so writes to "
          "distinct indices race under parallel_for; use std::vector<std::uint8_t>"});
    }
  }
}

// --- R-RACE2 --------------------------------------------------------------

struct LambdaCtx {
  bool default_ref = false;
  std::vector<std::string> ref_captures;
  std::vector<std::string> params;
  std::vector<std::string> locals;

  bool is_local(std::string_view id) const {
    return contains(params, id) || contains(locals, id);
  }
  bool captured_by_ref(std::string_view id) const {
    if (contains(ref_captures, id)) {
      return true;
    }
    return default_ref && !is_local(id);
  }
};

// Collects names declared inside the body [begin, end): initialized
// declarations (`Type name = ...`), range-for bindings (`auto& v : ...`),
// structured bindings (`auto [a, b]`), and `Type name(...)` constructor
// locals following a template close.
void collect_body_locals(const Tokens& toks, std::size_t begin, std::size_t end,
                         LambdaCtx& ctx) {
  for (std::size_t i = begin; i < end; ++i) {
    if (toks[i].kind != TokKind::kIdentifier || i == begin || i + 1 >= end) {
      continue;
    }
    const auto& prev = toks[i - 1];
    const auto& next = toks[i + 1];
    const bool type_like_prev =
        (prev.kind == TokKind::kIdentifier && !non_type_keyword(prev.text)) ||
        is_punct(prev, "&") || is_punct(prev, "*") || is_punct(prev, ">");
    if (type_like_prev && (is_punct(next, "=") || is_punct(next, ":") ||
                           is_punct(next, ";") ||
                           (is_punct(prev, ">") && is_punct(next, "(")))) {
      ctx.locals.emplace_back(toks[i].text);
    }
  }
  // Structured bindings: auto [&]? [ a, b ] ...
  for (std::size_t i = begin; i + 1 < end; ++i) {
    if (!is_id(toks[i], "auto")) {
      continue;
    }
    std::size_t j = i + 1;
    if (j < end && (is_punct(toks[j], "&") || is_punct(toks[j], "&&"))) {
      ++j;
    }
    if (j >= end || !is_punct(toks[j], "[")) {
      continue;
    }
    for (std::size_t k = j + 1; k < end && !is_punct(toks[k], "]"); ++k) {
      if (toks[k].kind == TokKind::kIdentifier) {
        ctx.locals.emplace_back(toks[k].text);
      }
    }
  }
}

// Walks a member-access chain backwards from `pos` (the token before a `.`
// or `[`). Returns the index of the base identifier, or npos when the chain
// starts from a call result or other unanalyzable expression. Sets
// `partitioned` when any subscript along the chain indexes with a
// local/param identifier.
constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

std::size_t chain_base(const Tokens& toks, std::size_t pos, const LambdaCtx& ctx,
                       bool* partitioned) {
  std::size_t i = pos;
  while (true) {
    if (is_punct(toks[i], "]")) {
      // Scan back to the matching `[`, checking the index expression.
      int depth = 0;
      std::size_t j = i;
      while (true) {
        if (is_punct(toks[j], "]")) {
          ++depth;
        } else if (is_punct(toks[j], "[")) {
          if (--depth == 0) {
            break;
          }
        } else if (depth >= 1 && toks[j].kind == TokKind::kIdentifier &&
                   ctx.is_local(toks[j].text)) {
          // A worker-local identifier anywhere in the index expression —
          // including nested subscripts like out[machine_map[m]] — marks
          // the write as partitioned by this iteration's slot.
          *partitioned = true;
        }
        if (j == 0) {
          return kNpos;
        }
        --j;
      }
      if (j == 0) {
        return kNpos;
      }
      i = j - 1;
      continue;
    }
    if (toks[i].kind == TokKind::kIdentifier) {
      if (i >= 1 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"))) {
        i -= 2;  // keep walking toward the base
        continue;
      }
      return i;
    }
    return kNpos;  // call result, cast, etc. — give up rather than guess
  }
}

bool is_assignment_op(const Token& tok) {
  static constexpr std::array<std::string_view, 11> kOps = {
      "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};
  return tok.kind == TokKind::kPunct &&
         std::find(kOps.begin(), kOps.end(), tok.text) != kOps.end();
}

bool is_growth_call(std::string_view id) {
  return id == "push_back" || id == "emplace_back" || id == "insert" ||
         id == "emplace" || id == "push_front" || id == "emplace_front";
}

void check_parallel_body(const FileInfo& info, const Tokens& toks, std::size_t begin,
                         std::size_t end, const LambdaCtx& ctx,
                         std::vector<Finding>& out) {
  for (std::size_t i = begin; i < end; ++i) {
    // Growth calls: base.push_back(...) and friends.
    if ((is_punct(toks[i], ".") || is_punct(toks[i], "->")) && i + 2 < end &&
        toks[i + 1].kind == TokKind::kIdentifier && is_growth_call(toks[i + 1].text) &&
        is_punct(toks[i + 2], "(") && i > begin) {
      bool partitioned = false;
      const std::size_t base = chain_base(toks, i - 1, ctx, &partitioned);
      if (base != kNpos && !partitioned && ctx.captured_by_ref(toks[base].text)) {
        out.push_back(Finding{
            info.path, toks[i + 1].line, "R-RACE2",
            "'" + std::string(toks[base].text) + "." + std::string(toks[i + 1].text) +
                "' grows a by-reference capture inside a parallel body; collect "
                "into per-chunk buffers and merge in chunk order"});
      }
    }
    // Unpartitioned subscript writes: base[expr] = ... with no local index.
    if (is_punct(toks[i], "]") && i + 1 < end && is_assignment_op(toks[i + 1]) &&
        i > begin) {
      bool partitioned = false;
      const std::size_t base = chain_base(toks, i, ctx, &partitioned);
      if (base != kNpos && !partitioned && ctx.captured_by_ref(toks[base].text)) {
        out.push_back(Finding{
            info.path, toks[i].line, "R-RACE2",
            "write to '" + std::string(toks[base].text) + "[...]' inside a parallel "
                "body is not partitioned by the worker's index; concurrent "
                "iterations may hit the same slot"});
      }
    }
  }
}

void rule_race2(const FileInfo& info, const Tokens& toks, std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier ||
        (toks[i].text != "parallel_for" && toks[i].text != "parallel_chunks") ||
        !is_punct(toks[i + 1], "(")) {
      continue;
    }
    const std::size_t call_end = skip_balanced(toks, i + 1);
    // Find the lambda's capture list inside the argument list.
    std::size_t intro = kNpos;
    for (std::size_t j = i + 2; j + 1 < call_end; ++j) {
      if (is_punct(toks[j], "[") &&
          (is_punct(toks[j - 1], ",") || is_punct(toks[j - 1], "("))) {
        intro = j;
        break;
      }
    }
    if (intro == kNpos) {
      continue;
    }
    LambdaCtx ctx;
    const std::size_t intro_end = skip_balanced(toks, intro);
    for (std::size_t j = intro + 1; j + 1 < intro_end; ++j) {
      if (is_punct(toks[j], "&")) {
        if (j + 1 < intro_end - 1 && toks[j + 1].kind == TokKind::kIdentifier) {
          ctx.ref_captures.emplace_back(toks[j + 1].text);
          ++j;
        } else {
          ctx.default_ref = true;
        }
      }
    }
    if (!ctx.default_ref && ctx.ref_captures.empty()) {
      continue;  // by-value lambda: nothing shared to race on
    }
    std::size_t cursor = intro_end;
    if (cursor < call_end && is_punct(toks[cursor], "(")) {
      const std::size_t params_end = skip_balanced(toks, cursor);
      std::string_view last_id;
      for (std::size_t j = cursor + 1; j + 1 < params_end; ++j) {
        if (toks[j].kind == TokKind::kIdentifier) {
          last_id = toks[j].text;
        } else if (is_punct(toks[j], ",") && !last_id.empty()) {
          ctx.params.emplace_back(last_id);
          last_id = {};
        }
      }
      if (!last_id.empty()) {
        ctx.params.emplace_back(last_id);
      }
      cursor = params_end;
    }
    while (cursor < call_end && !is_punct(toks[cursor], "{")) {
      ++cursor;  // skip mutable / noexcept / -> trailing return
    }
    if (cursor >= call_end) {
      continue;
    }
    const std::size_t body_end = skip_balanced(toks, cursor);
    collect_body_locals(toks, cursor + 1, body_end - 1, ctx);
    check_parallel_body(info, toks, cursor + 1, body_end - 1, ctx, out);
    i = body_end - 1;
  }
}

// --- R-API1 ---------------------------------------------------------------

void rule_api1(const FileInfo& info, const Tokens& toks, const DeprecatedDecls& deprecated,
               std::vector<Finding>& out) {
  // Test code is exempt: the deprecated path keeps its regression coverage
  // until the entry point is deleted outright.
  if (info.is_header || info.is_test || deprecated.decls.empty()) {
    return;
  }
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier || !is_punct(toks[i + 1], "(")) {
      continue;
    }
    const std::size_t arity = paren_list_arity(toks, i + 1);
    if (!deprecated.matches(toks[i].text, arity) || is_function_heading(toks, i, i + 1)) {
      continue;
    }
    out.push_back(Finding{
        info.path, toks[i].line, "R-API1",
        "call to deprecated entry point '" + std::string(toks[i].text) + "' (" +
            std::to_string(arity) + " args, tagged seg-deprecated); migrate to the "
            "replacement overload"});
  }
}

// --- R-LIFE1 ---------------------------------------------------------------

// Value-typed names a `return <name>;` must not escape by reference: locals
// and by-value parameters whose declarations carry no `&`, `*`, or view
// type of their own (returning a string_view *parameter* by value is a
// copy, not a dangle).
struct OwningNames {
  std::vector<std::string> names;
  bool contains_name(std::string_view id) const { return contains(names, id); }
};

bool is_view_type(std::string_view id) {
  return id == "string_view" || id == "span";
}

// Records the by-value owning parameters of the list opening at `open`.
void collect_value_params(const Tokens& toks, std::size_t open, OwningNames& out) {
  const std::size_t close = skip_balanced(toks, open);
  std::size_t seg_begin = open + 1;
  int depth = 0;
  for (std::size_t i = open; i < close; ++i) {
    if (is_punct(toks[i], "(") || is_punct(toks[i], "[") || is_punct(toks[i], "{") ||
        is_punct(toks[i], "<")) {
      ++depth;
    } else if (is_punct(toks[i], ")") || is_punct(toks[i], "]") ||
               is_punct(toks[i], "}") || is_punct(toks[i], ">")) {
      --depth;
    }
    if ((depth == 1 && is_punct(toks[i], ",")) || (depth == 0 && i + 1 == close)) {
      // One parameter segment [seg_begin, i).
      bool by_value = true;
      std::size_t name = kNpos;
      for (std::size_t j = seg_begin; j < i; ++j) {
        if (is_punct(toks[j], "&") || is_punct(toks[j], "&&") ||
            is_punct(toks[j], "*") ||
            (toks[j].kind == TokKind::kIdentifier && is_view_type(toks[j].text))) {
          by_value = false;
        }
        if (is_punct(toks[j], "=")) {
          break;  // default argument: the name came before it
        }
        if (toks[j].kind == TokKind::kIdentifier) {
          name = j;
        }
      }
      // A lone segment token is a type with no name (`(int)`), not a param.
      if (by_value && name != kNpos && name > seg_begin &&
          !contains(out.names, toks[name].text)) {
        out.names.emplace_back(toks[name].text);
      }
      seg_begin = i + 1;
    }
  }
}

// Records owning locals declared inside [begin, end): `Type name =`,
// `Type name;`, `Type name(...)` / `Type name{...}` where the token before
// the name is type-like and not a reference/pointer/view, and the
// declaration is not `static`.
void collect_owning_locals(const Tokens& toks, std::size_t begin, std::size_t end,
                           OwningNames& out) {
  for (std::size_t i = begin; i < end; ++i) {
    if (toks[i].kind != TokKind::kIdentifier || i == begin || i + 1 >= end) {
      continue;
    }
    const auto& prev = toks[i - 1];
    const auto& next = toks[i + 1];
    const bool declarator_next = is_punct(next, "=") || is_punct(next, ";") ||
                                 is_punct(next, "{");
    if (!declarator_next) {
      continue;
    }
    const bool type_like_prev = prev.kind == TokKind::kIdentifier &&
                                !non_type_keyword(prev.text) &&
                                !is_view_type(prev.text) && !is_id(prev, "static");
    const bool template_close_prev = is_punct(prev, ">");
    if (!type_like_prev && !template_close_prev) {
      continue;
    }
    // Scan the whole declaration statement (back to the previous `;`, `{`,
    // or `}`) for `static`: a static local outlives the return, so
    // `static sim::World world{...}; return world;` is legal.
    bool is_static = false;
    for (std::size_t j = i; j > begin; --j) {
      const auto& t = toks[j - 1];
      if (is_punct(t, ";") || is_punct(t, "{") || is_punct(t, "}")) {
        break;
      }
      if (is_id(t, "static")) {
        is_static = true;
        break;
      }
    }
    if (!is_static && !contains(out.names, toks[i].text)) {
      out.names.emplace_back(toks[i].text);
    }
  }
}

void rule_life1(const FileInfo& info, const Tokens& toks, std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier || !is_punct(toks[i + 1], "(") ||
        !is_function_heading(toks, i, i + 1)) {
      continue;
    }
    // Return-type window: walk back over type-ish tokens to the statement
    // boundary and look for a reference or view.
    std::size_t start = i;
    while (start > 0) {
      const auto& t = toks[start - 1];
      const bool type_ish =
          (t.kind == TokKind::kIdentifier && !non_type_keyword(t.text)) ||
          is_punct(t, "::") || is_punct(t, "<") || is_punct(t, ">") ||
          is_punct(t, "*") || is_punct(t, "&") || is_punct(t, ",");
      if (!type_ish) {
        break;
      }
      --start;
    }
    // Only a reference or view at the *top level* of the return type counts:
    // `std::vector<std::string_view>` owns its elements' views are into the
    // caller's data, so angle-bracket-nested matches are ignored.
    bool returns_ref_or_view = false;
    int angle = 0;
    for (std::size_t j = start; j < i; ++j) {
      if (is_punct(toks[j], "<")) {
        ++angle;
      } else if (is_punct(toks[j], ">")) {
        --angle;
      } else if (is_punct(toks[j], ">>")) {
        angle -= 2;
      } else if (angle <= 0 &&
                 (is_punct(toks[j], "&") || is_punct(toks[j], "&&") ||
                  (toks[j].kind == TokKind::kIdentifier && is_view_type(toks[j].text)))) {
        returns_ref_or_view = true;
        break;
      }
    }
    if (!returns_ref_or_view) {
      continue;
    }
    std::size_t after = skip_balanced(toks, i + 1);
    while (after < toks.size() &&
           (is_id(toks[after], "const") || is_id(toks[after], "noexcept") ||
            is_id(toks[after], "override") || is_id(toks[after], "final") ||
            is_punct(toks[after], "&") || is_punct(toks[after], "&&"))) {
      ++after;
    }
    if (after >= toks.size() || !is_punct(toks[after], "{")) {
      continue;  // declaration only
    }
    const std::size_t body_end = skip_balanced(toks, after);

    OwningNames owning;
    collect_value_params(toks, i + 1, owning);
    collect_owning_locals(toks, after + 1, body_end - 1, owning);

    for (std::size_t j = after + 1; j + 1 < body_end; ++j) {
      if (is_punct(toks[j], "[")) {
        // A `return` inside a nested lambda body returns from the lambda,
        // not from this function — skip `[..](..){..}` wholesale. A `[` that
        // is just a subscript (no `{` after the bracket/parameter clause)
        // skips only to its `]`.
        std::size_t k = skip_balanced(toks, j);  // just past ']'
        if (k < body_end && is_punct(toks[k], "(")) {
          k = skip_balanced(toks, k);
        }
        while (k < body_end &&
               (is_id(toks[k], "mutable") || is_id(toks[k], "noexcept") ||
                is_id(toks[k], "constexpr"))) {
          ++k;
        }
        if (k < body_end && is_punct(toks[k], "->")) {
          while (k < body_end && !is_punct(toks[k], "{") && !is_punct(toks[k], ";")) {
            ++k;
          }
        }
        j = (k < body_end && is_punct(toks[k], "{") ? skip_balanced(toks, k)
                                                    : skip_balanced(toks, j)) -
            1;
        continue;
      }
      if (!is_id(toks[j], "return")) {
        continue;
      }
      std::size_t stmt_end = j + 1;
      int depth = 0;
      while (stmt_end < body_end && !(depth == 0 && is_punct(toks[stmt_end], ";"))) {
        if (is_punct(toks[stmt_end], "(") || is_punct(toks[stmt_end], "[") ||
            is_punct(toks[stmt_end], "{")) {
          ++depth;
        } else if (is_punct(toks[stmt_end], ")") || is_punct(toks[stmt_end], "]") ||
                   is_punct(toks[stmt_end], "}")) {
          --depth;
        }
        ++stmt_end;
      }
      // `return <local>;` — the reference/view outlives the storage.
      if (stmt_end == j + 2 && toks[j + 1].kind == TokKind::kIdentifier &&
          owning.contains_name(toks[j + 1].text)) {
        out.push_back(Finding{
            info.path, toks[j + 1].line, "R-LIFE1",
            "returning a reference/view to function-local '" +
                std::string(toks[j + 1].text) +
                "'; the storage dies when the function returns — return by "
                "value or take the owner from the caller"});
      }
      // `return ... something_batch(...) ...;` — a view into the
      // by-value batch result of the parallel feature path.
      for (std::size_t k = j + 1; k + 1 < stmt_end; ++k) {
        if (toks[k].kind == TokKind::kIdentifier && is_punct(toks[k + 1], "(") &&
            toks[k].text.size() > 6 &&
            toks[k].text.substr(toks[k].text.size() - 6) == "_batch") {
          out.push_back(Finding{
              info.path, toks[k].line, "R-LIFE1",
              "returning a reference/view into the temporary returned by '" +
                  std::string(toks[k].text) +
                  "(...)'; batch queries return by value, so the view dangles "
                  "— materialize the result first"});
          break;
        }
      }
      j = stmt_end;
    }
    i = body_end - 1;
  }
}

// --- R-HDR1 / R-HDR2 ------------------------------------------------------

void rule_headers(const FileInfo& info, const Tokens& toks, std::vector<Finding>& out) {
  if (!info.is_header) {
    return;
  }
  bool has_pragma_once = false;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (is_punct(toks[i], "#") && is_id(toks[i + 1], "pragma") &&
        is_id(toks[i + 2], "once")) {
      has_pragma_once = true;
      break;
    }
  }
  if (!has_pragma_once) {
    out.push_back(Finding{info.path, 1, "R-HDR1",
                          "header is missing #pragma once; double inclusion breaks "
                          "the one-definition rule"});
  }
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (is_id(toks[i], "using") && is_id(toks[i + 1], "namespace")) {
      out.push_back(Finding{info.path, toks[i].line, "R-HDR2",
                            "`using namespace` at header scope pollutes every "
                            "includer; qualify names or alias inside functions"});
    }
  }
}

}  // namespace

// --- Declaration collection -----------------------------------------------

bool UnorderedDecls::has_name(std::string_view id) const {
  return contains(names, id);
}

bool UnorderedDecls::has_alias(std::string_view id) const {
  return contains(aliases, id);
}

void collect_unordered_decls(const std::vector<Token>& tokens, UnorderedDecls& decls) {
  const auto record_declared_name = [&](std::size_t after_type) {
    std::size_t j = after_type;
    while (j < tokens.size() &&
           (is_punct(tokens[j], "&") || is_punct(tokens[j], "*") ||
            is_punct(tokens[j], "&&") || is_id(tokens[j], "const"))) {
      ++j;
    }
    if (j < tokens.size() && tokens[j].kind == TokKind::kIdentifier &&
        !contains(decls.names, tokens[j].text)) {
      decls.names.emplace_back(tokens[j].text);
    }
  };

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const auto& t = tokens[i];
    if (t.kind != TokKind::kIdentifier) {
      continue;
    }
    // `using Alias = ... unordered_xxx< ... > ;`
    if (t.text == "using" && i + 2 < tokens.size() &&
        tokens[i + 1].kind == TokKind::kIdentifier && is_punct(tokens[i + 2], "=")) {
      for (std::size_t j = i + 3; j < tokens.size() && !is_punct(tokens[j], ";"); ++j) {
        if (tokens[j].kind == TokKind::kIdentifier &&
            is_unordered_container(tokens[j].text)) {
          if (!contains(decls.aliases, tokens[i + 1].text)) {
            decls.aliases.emplace_back(tokens[i + 1].text);
          }
          break;
        }
      }
      continue;
    }
    // Direct declaration: `unordered_map< ... > [cv/ref] name`.
    if (is_unordered_container(t.text) && i + 1 < tokens.size() &&
        is_punct(tokens[i + 1], "<")) {
      const std::size_t past = skip_template_args(tokens, i + 1);
      if (past != i + 1) {
        record_declared_name(past);
      }
      continue;
    }
    // Alias-typed declaration: `Alias name` or `Alias< ... > name`.
    if (contains(decls.aliases, t.text) && i + 1 < tokens.size()) {
      if (is_punct(tokens[i + 1], "<")) {
        const std::size_t past = skip_template_args(tokens, i + 1);
        if (past != i + 1) {
          record_declared_name(past);
        }
      } else {
        record_declared_name(i + 1);
      }
    }
  }
}

bool DeprecatedDecls::matches(std::string_view name, std::size_t arity) const {
  return std::any_of(decls.begin(), decls.end(), [&](const Decl& d) {
    return d.arity == arity && d.name == name;
  });
}

void collect_deprecated_decls(const LexResult& lex, DeprecatedDecls& decls) {
  for (const std::size_t marker : lex.deprecated_markers) {
    // First token past the marker line starts the tagged declaration; the
    // declared name is the identifier directly before its parameter list.
    std::size_t begin = 0;
    while (begin < lex.tokens.size() && lex.tokens[begin].line <= marker) {
      ++begin;
    }
    for (std::size_t i = begin; i + 1 < lex.tokens.size(); ++i) {
      if (is_punct(lex.tokens[i], ";") || is_punct(lex.tokens[i], "{")) {
        break;  // declaration ended without a parameter list
      }
      if (lex.tokens[i].kind != TokKind::kIdentifier ||
          !is_punct(lex.tokens[i + 1], "(")) {
        continue;
      }
      DeprecatedDecls::Decl decl;
      decl.name = std::string(lex.tokens[i].text);
      decl.arity = paren_list_arity(lex.tokens, i + 1);
      const bool known = std::any_of(
          decls.decls.begin(), decls.decls.end(),
          [&](const DeprecatedDecls::Decl& d) {
            return d.name == decl.name && d.arity == decl.arity;
          });
      if (!known) {
        decls.decls.push_back(std::move(decl));
      }
      break;
    }
  }
}

bool suppression_covers(std::string_view directive_rule, std::string_view rule) {
  if (directive_rule == rule) {
    return true;
  }
  // Category form: "arch" covers R-ARCH1/R-ARCH2. The category is the
  // lowercase run of letters between "R-" and the trailing digits.
  if (rule.substr(0, 2) != "R-") {
    return false;
  }
  std::string_view category = rule.substr(2);
  while (!category.empty() &&
         std::isdigit(static_cast<unsigned char>(category.back())) != 0) {
    category.remove_suffix(1);
  }
  if (category.size() != directive_rule.size()) {
    return false;
  }
  for (std::size_t i = 0; i < category.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(category[i])) != directive_rule[i]) {
      return false;
    }
  }
  return true;
}

std::vector<Finding> apply_suppressions(std::vector<Finding> findings,
                                        const std::vector<Suppression>& suppressions,
                                        std::vector<char>* used) {
  std::vector<Finding> kept;
  kept.reserve(findings.size());
  for (auto& finding : findings) {
    bool suppressed = false;
    for (std::size_t s = 0; s < suppressions.size(); ++s) {
      const auto& directive = suppressions[s];
      if (!suppression_covers(directive.rule, finding.rule)) {
        continue;
      }
      if (directive.whole_file || finding.line == directive.line ||
          finding.line == directive.line + 1) {
        suppressed = true;
        if (used != nullptr) {
          (*used)[s] = 1;
        }
        break;
      }
    }
    if (!suppressed) {
      kept.push_back(std::move(finding));
    }
  }
  return kept;
}

std::vector<Finding> run_rules(const FileInfo& info, const LexResult& lex,
                               const DeprecatedDecls& deprecated,
                               std::vector<char>* suppression_used) {
  std::vector<Finding> findings;
  rule_det1(info, lex.tokens, findings);
  rule_obs1(info, lex.tokens, findings);
  rule_mem1(info, lex.tokens, findings);
  rule_wire1(info, lex.tokens, findings);
  rule_race1(info, lex.tokens, findings);
  rule_race2(info, lex.tokens, findings);
  rule_api1(info, lex.tokens, deprecated, findings);
  rule_life1(info, lex.tokens, findings);
  rule_headers(info, lex.tokens, findings);

  std::vector<Finding> kept =
      apply_suppressions(std::move(findings), lex.suppressions, suppression_used);
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    return a.line != b.line ? a.line < b.line : a.rule < b.rule;
  });
  return kept;
}

}  // namespace seg::lint
