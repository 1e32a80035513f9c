// Content-addressed cache for seg-lint's per-file analysis results.
//
// `seg_lint --diff-base <ref>` lints the tree twice: once for the working
// tree and once for a `git archive` snapshot of the base ref. Almost every
// file is byte-identical between the two, so the second pass used to redo
// the symbol-index scan and the whole per-file rule pass for nothing. The
// cache keys both by FNV-1a content hashes:
//
//   symbols   keyed by the file's text hash alone — the scope scan is a
//             pure function of the bytes. Records store token indices
//             (param_open, body range), which stay valid for any lex of
//             identical text; the per-model file index is patched on reuse.
//   rules     keyed by text hash combined with everything else run_rules
//             reads: the file's path (its FileInfo classification) and the
//             project-wide deprecated set.
//
// Interprocedural results (call graph, dataflow, ODR, layering) are never
// cached — they depend on the whole model. Thread-safe; the per-file lint
// pass runs under util::parallel_for.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string_view>
#include <vector>

#include "util/lint/symbol_index.h"

namespace seg::lint {

inline std::uint64_t cache_hash(std::string_view text,
                                std::uint64_t seed = 1469598103934665603ULL) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t hash = seed;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kPrime;
  }
  hash ^= 0x1f;
  hash *= kPrime;
  return hash;
}

class AnalysisCache {
 public:
  struct SymbolEntry {
    std::vector<SymbolRecord> records;
    std::vector<DeprecatedDecls::Decl> deprecated;
  };
  struct RuleEntry {
    std::vector<Finding> findings;
    std::vector<char> suppression_used;
  };
  struct Stats {
    std::size_t symbol_hits = 0;
    std::size_t symbol_misses = 0;
    std::size_t rule_hits = 0;
    std::size_t rule_misses = 0;
  };

  bool lookup_symbols(std::uint64_t key, SymbolEntry& out) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = symbols_.find(key);
    if (it == symbols_.end()) {
      ++stats_.symbol_misses;
      return false;
    }
    ++stats_.symbol_hits;
    out = it->second;
    return true;
  }

  void store_symbols(std::uint64_t key, SymbolEntry entry) {
    const std::lock_guard<std::mutex> lock(mutex_);
    symbols_.emplace(key, std::move(entry));
  }

  bool lookup_rules(std::uint64_t key, RuleEntry& out) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = rules_.find(key);
    if (it == rules_.end()) {
      ++stats_.rule_misses;
      return false;
    }
    ++stats_.rule_hits;
    out = it->second;
    return true;
  }

  void store_rules(std::uint64_t key, RuleEntry entry) {
    const std::lock_guard<std::mutex> lock(mutex_);
    rules_.emplace(key, std::move(entry));
  }

  Stats stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::uint64_t, SymbolEntry> symbols_;
  std::map<std::uint64_t, RuleEntry> rules_;
  Stats stats_;
};

}  // namespace seg::lint
