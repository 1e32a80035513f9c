// Whole-program project model for seg-lint.
//
// The project model loads *every* file under the lint roots once, lexes it
// once, resolves every quoted #include into an edge of an include graph,
// and assigns each file a layer from a declarative `tools/layers.toml`.
// The cross-file rules run on top of this model:
//
//   R-ARCH1  layering: a file may only include headers of its own layer or
//            of layers its layer's `allow` list names. Violations carry the
//            offending include chain from a translation unit that reaches
//            the bad edge.
//   R-ARCH2  include cycles: the quoted-include graph must stay acyclic.
//
// The model is also the substrate for the cross-TU symbol index
// (symbol_index.h) and the project-wide R-API1 deprecated-entry-point set.
//
// layers.toml subset understood by parse_layers():
//
//   [[layer]]
//   name = "graph"
//   paths = ["src/graph/"]
//   allow = ["util", "dns"]
//
// `paths` entries are substrings matched against '/'-normalized file
// paths; `allow = ["*"]` lets a layer (e.g. tools) include everything.
// Files matching no layer are unconstrained.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "util/lint/linter.h"

namespace seg::lint {

struct LayerSpec {
  std::string name;
  std::vector<std::string> paths;  ///< path substrings selecting the layer's files
  std::vector<std::string> allow;  ///< layer names this layer may include; "*" = all
};

struct LayersConfig {
  std::vector<LayerSpec> layers;

  /// Index into `layers` of the layer owning `path`, or npos. When several
  /// `paths` substrings match, the longest match wins (so "tests/util/lint"
  /// can carve a sub-tree out of "tests/").
  std::size_t layer_of(std::string_view path) const;

  /// True when a file of layer `from` may include a header of layer `to`.
  bool allowed(std::size_t from, std::size_t to) const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/// Parses the layers.toml subset documented above. Throws std::runtime_error
/// with a line-bearing message on anything it does not understand.
LayersConfig parse_layers(std::string_view toml_text);

/// One file of the project model.
struct ProjectFile {
  /// Project-relative display path (normalize_path of the discovered path);
  /// all findings and messages use this form, so a report does not depend on
  /// where the checkout lives.
  std::string path;
  std::string disk_path;  ///< as discovered on disk; used for include resolution
  std::string text;       ///< full source; lex token views point into it
  LexResult lex;
  bool is_header = false;
  std::size_t layer = LayersConfig::npos;

  /// One resolved quoted include edge.
  struct Edge {
    std::size_t target = static_cast<std::size_t>(-1);  ///< file index, or npos
    std::string raw_target;                             ///< as written in the directive
    std::size_t line = 0;
  };
  std::vector<Edge> edges;
};

class ProjectModel {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Loads every file in `sources` (display paths kept verbatim), lexes
  /// each once, resolves quoted includes against sibling directories and
  /// `options.include_roots`, and assigns layers.
  static ProjectModel build(const std::vector<std::string>& sources,
                            const LintOptions& options, const LayersConfig& layers);

  /// In-memory variant for tests: `files` are (path, text) pairs; includes
  /// resolve by path suffix against the supplied set.
  static ProjectModel from_memory(
      const std::vector<std::pair<std::string, std::string>>& files,
      const LayersConfig& layers);

  const std::vector<ProjectFile>& files() const { return files_; }
  const LayersConfig& layers() const { return layers_; }

  /// Index of the file whose path equals `path` or ends with "/<path>",
  /// or npos.
  std::size_t index_of(std::string_view path) const;

  /// Shortest include chain (as file indices, starting at a .cpp when one
  /// reaches it) ending at `file`. Used to report *how* a layering
  /// violation becomes part of a translation unit.
  std::vector<std::size_t> chain_to(std::size_t file) const;

 private:
  void resolve_edges();
  void assign_layers();

  std::vector<ProjectFile> files_;  // sorted by path
  LayersConfig layers_;
};

/// R-ARCH1: every resolved include edge must stay within the including
/// file's layer or an allowed layer. Suppressible on the #include line with
/// `// seg-lint: allow(R-ARCH1)` (or `allow(arch)`). When `usage` is
/// non-null, suppressions that drop a finding are marked used.
std::vector<Finding> check_layering(const ProjectModel& model,
                                    SuppressionUsage* usage = nullptr);

/// R-ARCH2: reports each strongly-connected component of the quoted-include
/// graph with more than one file (or a self-include) once, on its
/// lexicographically first file, naming the cycle.
std::vector<Finding> check_include_cycles(const ProjectModel& model);

}  // namespace seg::lint
