// Whole-program seg-lint tests: project model, layering, include cycles,
// cross-TU symbol index / ODR, the report layer, and the v3
// interprocedural passes (call graph, R-DET3 dataflow, R-EXC1, R-SUP1,
// the analysis cache, and thread-count determinism).
#include "util/lint/project_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/lint/analysis_cache.h"
#include "util/lint/call_graph.h"
#include "util/lint/dataflow.h"
#include "util/lint/report.h"
#include "util/lint/symbol_index.h"
#include "util/obs/json_lite.h"
#include "util/parallel.h"

namespace seg::lint {
namespace {

using Files = std::vector<std::pair<std::string, std::string>>;

constexpr std::string_view kLayersToml = R"toml(
# test layering: util -> dns -> core
[[layer]]
name = "util"
paths = ["src/util/"]
allow = []

[[layer]]
name = "dns"
paths = ["src/dns/"]
allow = ["util"]

[[layer]]
name = "core"
paths = ["src/core/"]
allow = ["util", "dns"]

[[layer]]
name = "tools"
paths = ["tools/"]
allow = ["*"]
)toml";

LayersConfig test_layers() { return parse_layers(kLayersToml); }

std::vector<Finding> findings_for(const Files& files, const char* rule) {
  const auto model = ProjectModel::from_memory(files, test_layers());
  std::vector<Finding> all;
  if (std::string_view(rule) == "R-ARCH1") {
    all = check_layering(model);
  } else if (std::string_view(rule) == "R-ARCH2") {
    all = check_include_cycles(model);
  } else if (std::string_view(rule) == "R-ODR1") {
    all = check_odr(SymbolIndex::build(model), model);
  }
  return all;
}

TEST(LayersToml, ParsesNamesPathsAndAllows) {
  const auto layers = test_layers();
  ASSERT_EQ(layers.layers.size(), 4u);
  EXPECT_EQ(layers.layers[1].name, "dns");
  EXPECT_EQ(layers.layer_of("src/dns/query_log.cpp"), 1u);
  EXPECT_EQ(layers.layer_of("/abs/path/src/core/segugio.h"), 2u);
  EXPECT_EQ(layers.layer_of("README.md"), LayersConfig::npos);
  EXPECT_TRUE(layers.allowed(1, 0));   // dns -> util
  EXPECT_FALSE(layers.allowed(1, 2));  // dns -> core
  EXPECT_TRUE(layers.allowed(3, 2));   // tools -> anything via "*"
  EXPECT_TRUE(layers.allowed(1, 1));   // same layer
  EXPECT_TRUE(layers.allowed(LayersConfig::npos, 2));  // unlayered file
}

TEST(LayersToml, RejectsMalformedInput) {
  EXPECT_THROW(parse_layers("name = \"x\"\n"), std::runtime_error);  // key before table
  EXPECT_THROW(parse_layers("[[layer]]\nname = unquoted\n"), std::runtime_error);
  EXPECT_THROW(parse_layers("[[layer]]\nbogus = \"x\"\n"), std::runtime_error);
  EXPECT_THROW(parse_layers("[[layer]]\nname = \"a\"\nallow = [\"ghost\"]\n"),
               std::runtime_error);  // allow references unknown layer
}

TEST(Layering, CrossLayerIncludeFailsWithChain) {
  // Seeded violation from the issue spec: dns-layer code includes core.
  const Files files = {
      {"src/core/pipeline.h", "#pragma once\nint core_api();\n"},
      {"src/dns/resolver.h",
       "#pragma once\n#include \"core/pipeline.h\"\nint resolve();\n"},
      {"src/dns/resolver.cpp", "#include \"dns/resolver.h\"\nint resolve() { return core_api(); }\n"},
  };
  const auto findings = findings_for(files, "R-ARCH1");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R-ARCH1");
  EXPECT_EQ(findings[0].file, "src/dns/resolver.h");
  EXPECT_EQ(findings[0].line, 2u);  // the #include line
  EXPECT_NE(findings[0].message.find("'dns' code includes \"core/pipeline.h\""),
            std::string::npos);
  EXPECT_NE(findings[0].message.find("allowed: util"), std::string::npos);
  // The chain names how a translation unit reaches the bad edge.
  EXPECT_NE(findings[0].message.find("src/dns/resolver.cpp -> src/dns/resolver.h "
                                     "-> src/core/pipeline.h"),
            std::string::npos);
}

TEST(Layering, AllowedAndWildcardIncludesPass) {
  const Files files = {
      {"src/util/strings.h", "#pragma once\nint trim();\n"},
      {"src/dns/name.h", "#pragma once\n#include \"util/strings.h\"\n"},
      {"src/core/top.h", "#pragma once\n#include \"dns/name.h\"\n"},
      {"tools/cli.cpp", "#include \"core/top.h\"\nint main() { return 0; }\n"},
  };
  EXPECT_TRUE(findings_for(files, "R-ARCH1").empty());
}

TEST(Layering, ArchCategorySuppressionCoversDeliberateException) {
  const Files files = {
      {"src/core/pipeline.h", "#pragma once\n"},
      {"src/dns/resolver.h",
       "#pragma once\n"
       "// seg-lint: allow(arch) -- deliberate exception for the test\n"
       "#include \"core/pipeline.h\"\n"},
  };
  EXPECT_TRUE(findings_for(files, "R-ARCH1").empty());
  // The category form covers both ARCH rules; an unrelated rule does not.
  EXPECT_TRUE(suppression_covers("arch", "R-ARCH1"));
  EXPECT_TRUE(suppression_covers("arch", "R-ARCH2"));
  EXPECT_FALSE(suppression_covers("arch", "R-ODR1"));
  EXPECT_TRUE(suppression_covers("R-ARCH1", "R-ARCH1"));
  EXPECT_FALSE(suppression_covers("R-ARCH1", "R-ARCH2"));
}

TEST(IncludeCycles, TwoFileCycleReportedOnceWithPath) {
  const Files files = {
      {"src/util/a.h", "#pragma once\n#include \"util/b.h\"\n"},
      {"src/util/b.h", "#pragma once\n#include \"util/a.h\"\n"},
      {"src/util/a.cpp", "#include \"util/a.h\"\n"},
  };
  const auto findings = findings_for(files, "R-ARCH2");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R-ARCH2");
  // Reported once, on the lexicographically first member.
  EXPECT_EQ(findings[0].file, "src/util/a.h");
  EXPECT_NE(findings[0].message.find(
                "src/util/a.h -> src/util/b.h -> src/util/a.h"),
            std::string::npos);
}

TEST(IncludeCycles, SelfIncludeAndAcyclicTree) {
  const Files cyclic = {{"src/util/self.h", "#pragma once\n#include \"util/self.h\"\n"}};
  const auto findings = findings_for(cyclic, "R-ARCH2");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("src/util/self.h -> src/util/self.h"),
            std::string::npos);

  const Files acyclic = {
      {"src/util/base.h", "#pragma once\n"},
      {"src/util/mid.h", "#pragma once\n#include \"util/base.h\"\n"},
      {"src/util/top.cpp", "#include \"util/mid.h\"\n#include \"util/base.h\"\n"},
  };
  EXPECT_TRUE(findings_for(acyclic, "R-ARCH2").empty());
}

TEST(SymbolIndex, RecordsQualifiedNamesArityAndLinkage) {
  const Files files = {{"src/util/sym.cpp", R"cpp(
namespace seg::util {
int free_fn(int a, double b) { return a + static_cast<int>(b); }
class Widget {
 public:
  int method(int x) { return x; }
};
namespace {
int hidden() { return 1; }
}  // namespace
static int file_local(int) { return 2; }
}  // namespace seg::util
)cpp"}};
  const auto model = ProjectModel::from_memory(files, test_layers());
  const auto index = SymbolIndex::build(model);

  const auto find = [&](std::string_view qualified) -> const SymbolRecord* {
    for (const auto& record : index.records()) {
      if (record.qualified_name == qualified) {
        return &record;
      }
    }
    return nullptr;
  };
  const auto* free_fn = find("seg::util::free_fn");
  ASSERT_NE(free_fn, nullptr);
  EXPECT_EQ(free_fn->arity, 2u);
  EXPECT_TRUE(free_fn->has_body);
  EXPECT_FALSE(free_fn->is_inline);
  EXPECT_FALSE(free_fn->internal);

  const auto* method = find("seg::util::Widget::method");
  ASSERT_NE(method, nullptr);
  EXPECT_TRUE(method->is_inline) << "class-member definitions are implicitly inline";

  const auto* hidden = find("seg::util::hidden");
  ASSERT_NE(hidden, nullptr);
  EXPECT_TRUE(hidden->internal) << "anonymous namespace has internal linkage";

  const auto* file_local = find("seg::util::file_local");
  ASSERT_NE(file_local, nullptr);
  EXPECT_TRUE(file_local->internal) << "static functions have internal linkage";
}

TEST(Odr, DivergentInlineBodiesAcrossTUsNamesBothDefinitions) {
  // Seeded ODR pair from the issue spec: same inline function, different
  // bodies, reached from two translation units.
  const Files files = {
      {"src/util/first.h", "#pragma once\ninline int answer() { return 41; }\n"},
      {"src/util/second.h", "#pragma once\ninline int answer() { return 42; }\n"},
      {"src/util/one.cpp", "#include \"util/first.h\"\nint one() { return answer(); }\n"},
      {"src/util/two.cpp", "#include \"util/second.h\"\nint two() { return answer(); }\n"},
  };
  const auto findings = findings_for(files, "R-ODR1");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R-ODR1");
  EXPECT_NE(findings[0].message.find("divergent inline definitions of 'answer(0 args)'"),
            std::string::npos);
  EXPECT_NE(findings[0].message.find("src/util/first.h:2"), std::string::npos);
  EXPECT_NE(findings[0].message.find("src/util/second.h:2"), std::string::npos);
}

TEST(Odr, IdenticalInlineBodiesAreLegal) {
  const Files files = {
      {"src/util/first.h", "#pragma once\ninline int answer() { return 42; }\n"},
      {"src/util/second.h", "#pragma once\ninline int answer() { return 42; }\n"},
      {"src/util/one.cpp", "#include \"util/first.h\"\n"},
      {"src/util/two.cpp", "#include \"util/second.h\"\n"},
  };
  EXPECT_TRUE(findings_for(files, "R-ODR1").empty());
}

TEST(Odr, MultipleNonInlineDefinitionsAcrossTUs) {
  const Files files = {
      {"src/util/one.cpp", "int shared_fn(int v) { return v; }\n"},
      {"src/util/two.cpp", "int shared_fn(int v) { return v + 1; }\n"},
  };
  const auto findings = findings_for(files, "R-ODR1");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("multiple definitions of 'shared_fn(1 args)'"),
            std::string::npos);
  EXPECT_NE(findings[0].message.find("src/util/one.cpp:1"), std::string::npos);
  EXPECT_NE(findings[0].message.find("src/util/two.cpp:1"), std::string::npos);
}

TEST(Odr, DifferentSignaturesAreOverloadsNotViolations) {
  const Files files = {
      {"src/util/one.cpp", "int shared_fn(int v) { return v; }\n"},
      {"src/util/two.cpp", "int shared_fn(double v) { return static_cast<int>(v); }\n"},
  };
  // Same name and arity but different parameter types: distinct overloads.
  EXPECT_TRUE(findings_for(files, "R-ODR1").empty());
}

TEST(Odr, ParameterNamesDoNotSplitSignatures) {
  const Files files = {
      {"src/util/one.cpp", "int shared_fn(int alpha) { return alpha; }\n"},
      {"src/util/two.cpp", "int shared_fn(int beta) { return beta + 1; }\n"},
  };
  EXPECT_EQ(findings_for(files, "R-ODR1").size(), 1u)
      << "signatures must normalize away parameter names";
}

TEST(Odr, NonInlineHeaderDefinitionIncludedByTwoTUs) {
  const Files files = {
      {"src/util/helper.h", "#pragma once\nint helper(int v) { return v; }\n"},
      {"src/util/one.cpp", "#include \"util/helper.h\"\n"},
      {"src/util/two.cpp", "#include \"util/helper.h\"\n"},
  };
  const auto findings = findings_for(files, "R-ODR1");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/util/helper.h");
  EXPECT_NE(findings[0].message.find("included by 2 translation units"),
            std::string::npos);
  EXPECT_NE(findings[0].message.find("mark it inline"), std::string::npos);

  // The same header reached from a single TU is fine.
  const Files single = {
      {"src/util/helper.h", "#pragma once\nint helper(int v) { return v; }\n"},
      {"src/util/one.cpp", "#include \"util/helper.h\"\n"},
  };
  EXPECT_TRUE(findings_for(single, "R-ODR1").empty());
}

TEST(Odr, InternalLinkageAndMacroShapesAreExempt) {
  const Files files = {
      {"src/util/one.cpp",
       "namespace { int worker() { return 1; } }\nstatic int local() { return 2; }\n"},
      {"src/util/two.cpp",
       "namespace { int worker() { return 3; } }\nstatic int local() { return 4; }\n"},
      {"tests/util/a_test.cpp", "TEST(Suite, Name) { int x = 0; }\n"},
      {"tests/util/b_test.cpp", "TEST(Suite, Name) { int y = 1; }\n"},
  };
  EXPECT_TRUE(findings_for(files, "R-ODR1").empty());
}

TEST(Report, NormalizePathStripsCheckoutPrefixes) {
  EXPECT_EQ(normalize_path("/root/repo/src/util/a.h"), "src/util/a.h");
  EXPECT_EQ(normalize_path("/tmp/seg-lint-diff-x/tests/core/t.cpp"),
            "tests/core/t.cpp");
  EXPECT_EQ(normalize_path("src/util/a.h"), "src/util/a.h");
  EXPECT_EQ(normalize_path("no/known/root.cpp"), "no/known/root.cpp");
  // Same finding from an absolute checkout and a scratch tree: same key.
  const Finding abs_form{"/root/repo/src/util/a.h", 3, "R-HDR1", "msg"};
  const Finding scratch_form{"/tmp/x/src/util/a.h", 9, "R-HDR1", "msg"};
  EXPECT_EQ(finding_key(abs_form), finding_key(scratch_form));
  // Line numbers are excluded from keys; rule and message are not.
  const Finding other_rule{"/root/repo/src/util/a.h", 3, "R-HDR2", "msg"};
  EXPECT_NE(finding_key(abs_form), finding_key(other_rule));
}

// Keys of the `findings` entries of a write_json document, read back with
// the obs JSON parser.
std::vector<std::string> json_finding_keys(const std::string& text) {
  std::string error;
  const obs::json::Value doc = obs::json::parse(text, &error);
  EXPECT_TRUE(error.empty()) << error;
  std::vector<std::string> keys;
  const obs::json::Value* list = doc.find("findings");
  if (list == nullptr || !list->is_array()) {
    ADD_FAILURE() << "no findings array in: " << text;
    return keys;
  }
  for (const auto& entry : list->as_array()) {
    const auto field = [&](std::string_view name) {
      const obs::json::Value* value = entry.find(name);
      return value != nullptr && value->is_string() ? value->as_string() : std::string{};
    };
    keys.push_back(finding_key(Finding{field("file"), 0, field("rule"), field("message")}));
  }
  return keys;
}

TEST(Report, JsonRoundTripsThroughBaselineKeys) {
  const std::vector<Finding> findings = {
      {"src/util/a.h", 3, "R-DET3", "iterating 'seen' (std::unordered_map)"},
      {"src/core/b.cpp", 7, "R-RACE1", "std::vector<bool> with \"quotes\"\nand newline"},
  };
  std::ostringstream out;
  write_json(out, findings);
  const auto keys = json_finding_keys(out.str());
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], finding_key(findings[0]));
  EXPECT_EQ(keys[1], finding_key(findings[1]));

  // Subtracting a finding list's own keys leaves nothing…
  EXPECT_TRUE(subtract_baseline(findings, keys).empty());
  // …and subtraction is multiset-style: two equal findings, one key.
  std::vector<Finding> doubled = {findings[0], findings[0]};
  const auto remaining =
      subtract_baseline(doubled, {finding_key(findings[0])});
  ASSERT_EQ(remaining.size(), 1u);
  EXPECT_EQ(remaining[0].rule, "R-DET3");
}

TEST(Report, SarifGoldenDocument) {
  const std::vector<Finding> findings = {
      {"/root/repo/src/util/a.h", 2, "R-ARCH2",
       "include cycle: src/util/a.h -> src/util/b.h -> src/util/a.h"},
  };
  std::ostringstream out;
  write_sarif(out, findings);
  const std::string golden = R"({
  "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
  "version": "2.1.0",
  "runs": [
    {
      "tool": {
        "driver": {
          "name": "seg-lint",
          "version": "3.0.0",
          "informationUri": "docs/static-analysis.md",
          "rules": [
            {"id": "R-ARCH2", "shortDescription": {"text": "the quoted-include graph must stay acyclic"}}
          ]
        }
      },
      "results": [
        {
          "ruleId": "R-ARCH2",
          "level": "error",
          "message": {"text": "include cycle: src/util/a.h -> src/util/b.h -> src/util/a.h"},
          "locations": [
            {"physicalLocation": {"artifactLocation": {"uri": "src/util/a.h"}, "region": {"startLine": 2}}}
          ]
        }
      ]
    }
  ]
}
)";
  EXPECT_EQ(out.str(), golden);
}

TEST(Report, EmptyFindingsProduceValidDocuments) {
  std::ostringstream json;
  write_json(json, {});
  EXPECT_TRUE(json_finding_keys(json.str()).empty());
  std::ostringstream sarif;
  write_sarif(sarif, {});
  EXPECT_NE(sarif.str().find("\"results\": []"), std::string::npos);
  EXPECT_NE(sarif.str().find("\"rules\": []"), std::string::npos);
}

// --- seg-lint v3: call graph ----------------------------------------------

// Whole-program lint over an in-memory tree, filtered to the rules under
// test so unrelated per-file rules cannot leak into the assertions.
std::vector<Finding> lint_tree(const Files& files, std::vector<std::string> only) {
  const auto model = ProjectModel::from_memory(files, test_layers());
  LintOptions options;
  options.only_rules = std::move(only);
  return lint_model(model, options);
}

const SymbolRecord* record_named(const SymbolIndex& index, std::string_view name,
                                 std::size_t arity) {
  for (const auto& record : index.records()) {
    if (record.name == name && record.arity == arity && record.has_body) {
      return &record;
    }
  }
  return nullptr;
}

TEST(CallGraph, ResolvesOverloadsByArity) {
  const Files files = {{"src/core/cg.cpp", R"cpp(
int pick(int a) { return a; }
int pick(int a, int b) { return a + b; }
int caller() { return pick(1) + pick(1, 2); }
)cpp"}};
  const auto model = ProjectModel::from_memory(files, test_layers());
  const auto index = SymbolIndex::build(model);
  const auto graph = CallGraph::build(index, model);

  const auto one = graph.resolve("pick", 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(index.records()[one[0]].arity, 1u);
  const auto two = graph.resolve("pick", 2);
  ASSERT_EQ(two.size(), 1u);
  EXPECT_EQ(index.records()[two[0]].arity, 2u);
  // No arity matches: conservative fallback to every same-name definition.
  EXPECT_EQ(graph.resolve("pick", 5).size(), 2u);
  EXPECT_TRUE(graph.resolve("ghost", 0).empty());

  // The caller's callee list reaches both overloads, one per call site.
  const auto* caller = record_named(index, "caller", 0);
  ASSERT_NE(caller, nullptr);
  const std::size_t caller_at =
      static_cast<std::size_t>(caller - index.records().data());
  EXPECT_EQ(graph.callees()[caller_at].size(), 2u);
}

TEST(CallGraph, TemplatesAndExternCDefinitionsAreNodes) {
  const Files files = {{"src/core/shapes.cpp", R"cpp(
template <typename T>
T ident(T value) { return value; }
extern "C" int c_entry(int value) { return ident(value); }
)cpp"}};
  const auto model = ProjectModel::from_memory(files, test_layers());
  const auto index = SymbolIndex::build(model);
  const auto graph = CallGraph::build(index, model);

  const auto* tmpl = record_named(index, "ident", 1);
  ASSERT_NE(tmpl, nullptr) << "template definitions must be indexed";
  const auto* centry = record_named(index, "c_entry", 1);
  ASSERT_NE(centry, nullptr) << "extern \"C\" definitions must be indexed";
  const std::size_t centry_at =
      static_cast<std::size_t>(centry - index.records().data());
  const std::size_t tmpl_at =
      static_cast<std::size_t>(tmpl - index.records().data());
  const auto& callees = graph.callees()[centry_at];
  EXPECT_NE(std::find(callees.begin(), callees.end(), tmpl_at), callees.end())
      << "the extern \"C\" body calls the template";
}

// --- seg-lint v3: R-DET3 interprocedural determinism ----------------------

TEST(Det3, DirectUnorderedIterationIntoStreamIsFlagged) {
  const Files files = {{"src/core/emit.cpp", R"cpp(
void dump(const std::unordered_map<std::string, int>& counts) {
  for (const auto& [name, count] : counts) {
    std::cout << name << " " << count << "\n";
  }
}
)cpp"}};
  // Both bindings reach the stream; findings sort by message, 'count' first.
  const auto findings = lint_tree(files, {"R-DET3"});
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "R-DET3");
  EXPECT_EQ(findings[0].file, "src/core/emit.cpp");
  EXPECT_NE(findings[0].message.find("'count'"), std::string::npos);
  EXPECT_NE(findings[1].message.find("'name'"), std::string::npos);
  EXPECT_NE(findings[0].message.find("reaches output stream 'cout'"),
            std::string::npos);
}

TEST(Det3, AliasTypedMemberFromIncludedHeaderIsFlagged) {
  // The member's alias type lives in the class header; the .cpp that
  // iterates it sees the declaration only through its #include.
  const Files files = {{"src/dns/store.h", R"cpp(
#pragma once
class Store {
  using DayIndex = std::unordered_map<unsigned, int>;
  DayIndex ip_index_;
};
)cpp"},
                       {"src/dns/store.cpp", R"cpp(
#include "dns/store.h"
void Store::save(std::ostream& out) {
  for (const auto& [ip, days] : ip_index_) { out << ip; }
}
)cpp"}};
  const auto findings = lint_tree(files, {"R-DET3"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/dns/store.cpp");
  EXPECT_NE(findings[0].message.find("'ip'"), std::string::npos);
}

TEST(Det3, SortBeforeEmitIsClean) {
  const Files files = {{"src/core/sorted.cpp", R"cpp(
void dump(const std::unordered_map<std::string, int>& counts) {
  std::vector<std::string> names;
  for (const auto& [name, count] : counts) {
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  for (const auto& name : names) {
    std::cout << name << "\n";
  }
}
)cpp"}};
  EXPECT_TRUE(lint_tree(files, {"R-DET3"}).empty());
}

TEST(Det3, CollectIntoOrderedMapIsClean) {
  const Files files = {{"src/core/ordered.cpp", R"cpp(
void dump(const std::unordered_map<std::string, int>& counts) {
  std::map<std::string, int> sorted;
  for (const auto& [name, count] : counts) {
    sorted.emplace(name, count);
  }
  for (const auto& [name, count] : sorted) {
    std::cout << name << " " << count << "\n";
  }
}
)cpp"}};
  EXPECT_TRUE(lint_tree(files, {"R-DET3"}).empty());
}

TEST(Det3, TaintedReturnTracksThroughHelperIntoCaller) {
  const Files files = {{"src/core/chain.cpp", R"cpp(
std::vector<std::string> collect(const std::unordered_set<std::string>& pool) {
  std::vector<std::string> out;
  for (const auto& name : pool) {
    out.push_back(name);
  }
  return out;
}
void emit(const std::unordered_set<std::string>& pool) {
  const auto names = collect(pool);
  for (const auto& name : names) {
    std::cout << name << "\n";
  }
}
)cpp"}};
  const auto findings = lint_tree(files, {"R-DET3"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/core/chain.cpp");
  // The finding anchors in the caller and names the helper's provenance.
  EXPECT_NE(findings[0].message.find("collect"), std::string::npos);
  EXPECT_NE(findings[0].message.find("reaches output stream 'cout'"),
            std::string::npos);
}

TEST(Det3, TaintedReturnNeutralizedBySortInCaller) {
  const Files files = {{"src/core/chain_sorted.cpp", R"cpp(
std::vector<std::string> collect(const std::unordered_set<std::string>& pool) {
  std::vector<std::string> out;
  for (const auto& name : pool) {
    out.push_back(name);
  }
  return out;
}
void emit(const std::unordered_set<std::string>& pool) {
  auto names = collect(pool);
  std::sort(names.begin(), names.end());
  for (const auto& name : names) {
    std::cout << name << "\n";
  }
}
)cpp"}};
  EXPECT_TRUE(lint_tree(files, {"R-DET3"}).empty());
}

TEST(Det3, TaintedOutParamTracksAcrossFiles) {
  const Files files = {
      {"src/core/fill.h", R"cpp(
#pragma once
inline void fill(const std::unordered_set<std::string>& pool,
                 std::vector<std::string>& sink) {
  for (const auto& name : pool) {
    sink.push_back(name);
  }
}
)cpp"},
      {"src/core/use.cpp", R"cpp(
#include "core/fill.h"
void emit(const std::unordered_set<std::string>& pool) {
  std::vector<std::string> names;
  fill(pool, names);
  for (const auto& name : names) {
    std::cout << name << "\n";
  }
}
)cpp"},
  };
  const auto findings = lint_tree(files, {"R-DET3"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/core/use.cpp");
  EXPECT_NE(findings[0].message.find("reaches output stream 'cout'"),
            std::string::npos);
}

TEST(Det3, CallbackVisitPatternReachesLambdaSink) {
  const Files files = {{"src/core/visit.cpp", R"cpp(
struct Index {
  std::unordered_map<std::string, int> table;
  void visit(const std::function<void(const std::string&)>& fn) const {
    for (const auto& [key, value] : table) {
      fn(key);
    }
  }
};
void report(const Index& index) {
  index.visit([&](const std::string& key) { std::cout << key << "\n"; });
}
)cpp"}};
  const auto findings = lint_tree(files, {"R-DET3"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/core/visit.cpp");
  EXPECT_NE(findings[0].message.find("'key'"), std::string::npos);
}

TEST(Det3, SuppressibleAtTheAnchorLine) {
  const Files files = {{"src/core/allowed.cpp", R"cpp(
void dump(const std::unordered_map<std::string, int>& counts) {
  for (const auto& [name, count] : counts) {
    // seg-lint: allow(R-DET3) -- diagnostic dump, order irrelevant
    std::cout << name << "\n";
  }
}
)cpp"}};
  EXPECT_TRUE(lint_tree(files, {"R-DET3"}).empty());
}

// --- seg-lint v3: R-WIRE1 --------------------------------------------------

TEST(Wire1, ComputedSubscriptOnWireSurfaceIsFlagged) {
  const Files files = {{"src/dns/wire/raw.cpp", R"cpp(
unsigned char peek(const unsigned char* data, std::size_t i) {
  const unsigned char value = data[i];
  return value;
}
)cpp"}};
  const auto findings = lint_tree(files, {"R-WIRE1"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R-WIRE1");
  EXPECT_NE(findings[0].message.find("computed subscript"), std::string::npos);
  EXPECT_NE(findings[0].message.find("ByteCursor"), std::string::npos);
}

TEST(Wire1, LiteralSubscriptAllowlistAndNonWirePathsAreClean) {
  // Fixed-lane extraction from an already bounds-checked span stays legal.
  const Files literal = {{"src/dns/wire/lanes.cpp", R"cpp(
unsigned int lane(std::span<const unsigned char> rdata) {
  return rdata[0];
}
)cpp"}};
  EXPECT_TRUE(lint_tree(literal, {"R-WIRE1"}).empty());

  // The ByteCursor implementation itself is where the checks live.
  const Files cursor = {{"src/dns/wire/bytes.h", R"cpp(
#pragma once
inline unsigned char at(std::span<const unsigned char> data, std::size_t i) {
  return data[i];
}
)cpp"}};
  EXPECT_TRUE(lint_tree(cursor, {"R-WIRE1"}).empty());

  // Off the wire surface the rule does not apply at all.
  const Files elsewhere = {{"src/core/buffer.cpp", R"cpp(
unsigned char peek(const unsigned char* data, std::size_t i) {
  const unsigned char value = data[i];
  return value;
}
)cpp"}};
  EXPECT_TRUE(lint_tree(elsewhere, {"R-WIRE1"}).empty());
}

TEST(Wire1, PointerArithmeticOnWireBytesIsFlagged) {
  const Files files = {{"src/dns/wire/walk.cpp", R"cpp(
void walk(const unsigned char* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    consume(*p);
    p += 1;
  }
}
)cpp"}};
  const auto findings = lint_tree(files, {"R-WIRE1"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("pointer arithmetic"), std::string::npos);
}

// --- seg-lint v3: R-EXC1 ---------------------------------------------------

TEST(Exc1, BareThreadLambdaIsFlagged) {
  const Files files = {{"src/core/spawn.cpp", R"cpp(
void spawn() {
  std::thread worker([] { do_work(); });
  worker.join();
}
)cpp"}};
  const auto findings = lint_tree(files, {"R-EXC1"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R-EXC1");
  EXPECT_NE(findings[0].message.find("std::terminate"), std::string::npos);
}

TEST(Exc1, CatchAllWithCurrentExceptionRoutes) {
  const Files files = {{"src/core/spawn_ok.cpp", R"cpp(
void spawn(std::exception_ptr& error) {
  std::thread worker([&] {
    try {
      do_work();
    } catch (...) {
      error = std::current_exception();
    }
  });
  worker.join();
}
)cpp"}};
  EXPECT_TRUE(lint_tree(files, {"R-EXC1"}).empty());
}

TEST(Exc1, NamedEntryPointJudgedThroughTheCallGraph) {
  const Files routed = {{"src/core/pool.cpp", R"cpp(
void run_loop(std::exception_ptr& error) {
  try {
    work();
  } catch (...) {
    error = std::current_exception();
  }
}
void spawn(std::exception_ptr& error) {
  std::thread t(run_loop, std::ref(error));
  t.join();
}
)cpp"}};
  EXPECT_TRUE(lint_tree(routed, {"R-EXC1"}).empty());

  const Files unrouted = {{"src/core/pool_bad.cpp", R"cpp(
void run_loop() { work(); }
void spawn() {
  std::thread t(run_loop);
  t.join();
}
)cpp"}};
  const auto findings = lint_tree(unrouted, {"R-EXC1"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("'run_loop'"), std::string::npos);
}

TEST(Exc1, EmplaceIntoThreadVectorIsASpawnSite) {
  const Files files = {{"src/core/fleet.cpp", R"cpp(
void spawn_fleet(std::size_t n) {
  std::vector<std::thread> fleet;
  for (std::size_t i = 0; i < n; ++i) {
    fleet.emplace_back([] { work(); });
  }
}
)cpp"}};
  const auto findings = lint_tree(files, {"R-EXC1"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R-EXC1");
}

TEST(Exc1, HealthSamplerStyleThreadBodyRoutesThroughParkedPointer) {
  // Mirrors obs::HealthSampler::start(): the sampler thread wraps its whole
  // run loop in catch(...) and parks the exception for stop() to rethrow.
  const Files routed = {{"src/util/obs/sampler.cpp", R"cpp(
void start(std::exception_ptr& error) {
  std::thread sampler([&] {
    try {
      run_loop();
    } catch (...) {
      error = std::current_exception();
    }
  });
  sampler.join();
}
)cpp"}};
  EXPECT_TRUE(lint_tree(routed, {"R-EXC1"}).empty());

  // Dropping the routing — a bare run_loop() in the thread body — is the
  // std::terminate hazard R-EXC1 exists to catch, obs layer or not.
  const Files unrouted = {{"src/util/obs/sampler_bad.cpp", R"cpp(
void start() {
  std::thread sampler([] { run_loop(); });
  sampler.join();
}
)cpp"}};
  const auto findings = lint_tree(unrouted, {"R-EXC1"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R-EXC1");
}

// --- seg-lint v3: R-SUP1 stale suppressions --------------------------------

TEST(Sup1, StaleDirectiveIsFlaggedUsedDirectiveIsNot) {
  const Files stale = {{"src/core/stale.cpp",
                        "// seg-lint: allow(R-DET1) -- nothing here needs it\n"
                        "int answer() { return 42; }\n"}};
  const auto findings = lint_tree(stale, {"R-SUP1"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R-SUP1");
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_NE(findings[0].message.find("stale suppression"), std::string::npos);
  EXPECT_NE(findings[0].message.find("allow(R-DET1)"), std::string::npos);

  // A directive that actually covers a finding is used, not stale.
  const Files used = {{"src/core/seeded.cpp",
                       "int jitter() {\n"
                       "  // seg-lint: allow(R-DET1) -- deliberate for the test\n"
                       "  return rand();\n"
                       "}\n"}};
  EXPECT_TRUE(lint_tree(used, {"R-SUP1"}).empty());
}

// --- seg-lint v3: analysis cache and thread-count determinism --------------

Files generated_tree(std::size_t count) {
  Files files;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string n = std::to_string(i);
    files.push_back({"src/core/gen" + n + ".cpp",
                     "void dump" + n +
                         "(const std::unordered_map<int, int>& table) {\n"
                         "  for (const auto& [key, value] : table) {\n"
                         "    std::cout << key << value;\n"
                         "  }\n"
                         "}\n"});
  }
  return files;
}

TEST(Cache, SecondRunReusesScansWithIdenticalFindings) {
  const auto model = ProjectModel::from_memory(generated_tree(6), test_layers());
  LintOptions options;
  AnalysisCache cache;
  const auto first = lint_model(model, options, &cache);
  const auto after_first = cache.stats();
  EXPECT_EQ(after_first.symbol_hits, 0u);
  EXPECT_EQ(after_first.rule_hits, 0u);
  EXPECT_EQ(after_first.symbol_misses, 6u);
  EXPECT_EQ(after_first.rule_misses, 6u);

  const auto second = lint_model(model, options, &cache);
  const auto after_second = cache.stats();
  EXPECT_EQ(after_second.symbol_hits, 6u);
  EXPECT_EQ(after_second.rule_hits, 6u);

  // Byte-identical reports with and without cache reuse.
  std::ostringstream a, b;
  write_sarif(a, first);
  write_sarif(b, second);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_FALSE(first.empty()) << "the fixture must exercise real findings";
}

TEST(ParallelLint, SarifByteIdenticalAcrossThreadCounts) {
  const auto model = ProjectModel::from_memory(generated_tree(12), test_layers());
  LintOptions options;
  util::set_parallelism(1);
  const auto serial = lint_model(model, options);
  util::set_parallelism(8);
  const auto parallel = lint_model(model, options);
  util::set_parallelism(0);  // restore the SEG_THREADS / hardware default

  std::ostringstream one, eight;
  write_sarif(one, serial);
  write_sarif(eight, parallel);
  EXPECT_EQ(one.str(), eight.str());
  EXPECT_FALSE(serial.empty()) << "the fixture must exercise real findings";
}

}  // namespace
}  // namespace seg::lint
