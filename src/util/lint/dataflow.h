// Interprocedural dataflow for seg-lint v3.
//
// A taint analysis over the call graph (call_graph.h) that tracks values
// produced by iterating unordered containers — whose order is a function of
// the hash seed and insertion history, not the data — until they reach a
// serialization sink (stream insertion, printf-family call) or are
// neutralized (collected into an ordered container, passed through
// std::sort). Per-function summaries make the analysis interprocedural:
//
//   taints_return       the function returns a container/value populated by
//                       unordered iteration without an intervening sort;
//   tainted_out_params  mutable-reference parameters the function grows
//                       with unordered-iteration values;
//   exposes_callback    the function invokes a std::function parameter
//                       with unordered-iteration values (the visit()
//                       pattern), so lambdas passed at call sites see them;
//   routes_exceptions   the function routes exceptions to its caller
//                       (std::packaged_task, or catch(...) plus
//                       std::current_exception) — the R-EXC1 contract.
//
// Summaries are iterated to a fixed point (facts only ever widen, so
// convergence is bounded), then a final pass emits findings:
//
//   R-DET3  an unordered-iteration value reaches a serialization sink,
//           possibly through returns, out-params, or callbacks.
//   R-EXC1  a thread body (std::thread construction, or emplace into a
//           vector<std::thread>) neither routes exceptions itself nor calls
//           a function that does; an escaping exception calls
//           std::terminate (check_thread_exceptions).
//
// Like the rest of the checker this is heuristic token matching, tuned to
// over-approximate taint propagation and under-approximate sink matching:
// a missed finding is recoverable, a noisy rule gets disabled.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "util/lint/call_graph.h"

namespace seg::lint {

/// Per-function summary, widened monotonically across fixed-point rounds.
struct FunctionFacts {
  bool taints_return = false;
  /// Human-readable provenance ("iteration over unordered 'days_'"),
  /// set once when the fact first flips so messages stay stable.
  std::string return_origin;
  /// (parameter position, provenance) pairs for mutable-reference
  /// parameters grown with tainted values.
  std::vector<std::pair<std::size_t, std::string>> tainted_out_params;
  bool exposes_callback = false;
  std::string callback_origin;
  bool routes_exceptions = false;
};

struct DataflowResult {
  /// Parallel to `index.records()`.
  std::vector<FunctionFacts> facts;
  /// Raw R-DET3 findings; the driver applies suppressions and test-path
  /// filtering.
  std::vector<Finding> det3;
};

/// Runs the taint analysis over every definition in `index`.
/// `closure_decls` holds, per model file, the unordered-container
/// declarations visible from that file (its own plus its include closure).
/// Deterministic: records are analyzed in index order and findings come
/// back in discovery order.
DataflowResult run_dataflow(const SymbolIndex& index, const CallGraph& graph,
                            const ProjectModel& model,
                            const std::vector<UnorderedDecls>& closure_decls);

/// R-EXC1 over the facts from `run_dataflow` (see header comment). Raw
/// findings; the driver applies suppressions and test-path filtering.
std::vector<Finding> check_thread_exceptions(const SymbolIndex& index,
                                             const CallGraph& graph,
                                             const ProjectModel& model,
                                             const DataflowResult& flow);

}  // namespace seg::lint
