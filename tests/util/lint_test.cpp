// seg-lint rule engine tests: for every rule, an inline fixture that must
// match, one that must not, and one where a suppression comment silences
// the finding. Fixtures are raw strings, which also exercises the lexer's
// guarantee that rules never fire on text inside literals.
#include "util/lint/linter.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/lint/project_model.h"

namespace seg::lint {
namespace {

using Files = std::vector<std::pair<std::string, std::string>>;

// Lints an in-memory tree with the whole-program driver. Quoted includes
// resolve by path suffix, so a fixture sees a companion header's
// declarations by #including it.
std::vector<Finding> run(const Files& files) {
  return lint_model(ProjectModel::from_memory(files, LayersConfig{}), LintOptions{});
}

std::vector<Finding> run(std::string_view path, std::string_view text) {
  return run(Files{{std::string(path), std::string(text)}});
}

bool has_rule(const std::vector<Finding>& findings, std::string_view rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

// --- R-DET1: ambient clock / randomness ------------------------------------

TEST(RDet1, FlagsRandAndWallClock) {
  const auto findings = run("src/core/score.cpp", R"cpp(
    int jitter() { return rand() % 10; }
    long stamp() { return time(nullptr); }
    void seed() { std::random_device rd; }
    auto t = std::chrono::system_clock::now();
  )cpp");
  EXPECT_EQ(findings.size(), 4u);
  EXPECT_TRUE(has_rule(findings, "R-DET1"));
}

TEST(RDet1, IgnoresSteadyClockAndForeignRand) {
  const auto findings = run("src/core/score.cpp", R"cpp(
    auto t = std::chrono::steady_clock::now();
    double draw(util::Rng& rng) { return rng.rand(); }
    long t2 = clock.time(nullptr);
  )cpp");
  EXPECT_FALSE(has_rule(findings, "R-DET1"));
}

TEST(RDet1, AllowlistedTimingFileIsExempt) {
  const auto findings = run("src/util/obs/trace.cpp", R"cpp(
    auto wall() { return std::chrono::system_clock::now(); }
  )cpp");
  EXPECT_FALSE(has_rule(findings, "R-DET1"));
}

TEST(RDet1, SuppressionComment) {
  const auto findings = run("src/core/score.cpp", R"cpp(
    // seg-lint: allow(R-DET1)
    long stamp() { return time(nullptr); }
  )cpp");
  EXPECT_FALSE(has_rule(findings, "R-DET1"));
}

TEST(RDet1, LiteralsNeverMatch) {
  const auto findings = run("src/core/score.cpp", R"cpp(
    const char* doc = "never call rand() or time(nullptr) here";
  )cpp");
  EXPECT_TRUE(findings.empty());
}

// --- R-OBS1: raw timing primitives outside the obs layer ---------------------

TEST(RObs1, FlagsSteadyClockOutsideObsLayer) {
  const auto findings = run("src/core/score.cpp", R"cpp(
    auto t0 = std::chrono::steady_clock::now();
    auto t1 = std::chrono::high_resolution_clock::now();
  )cpp");
  EXPECT_TRUE(has_rule(findings, "R-OBS1"));
}

TEST(RObs1, FlagsStopwatchUse) {
  const auto findings = run("src/core/score.cpp", R"cpp(
    double elapsed() { obs::Stopwatch watch; return watch.elapsed_seconds(); }
  )cpp");
  EXPECT_TRUE(has_rule(findings, "R-OBS1"));
}

TEST(RObs1, ObsLayerIsExempt) {
  const auto findings = run("src/util/obs/trace.cpp", R"cpp(
    auto epoch = std::chrono::steady_clock::now();
    Stopwatch watch;
  )cpp");
  EXPECT_FALSE(has_rule(findings, "R-OBS1"));
}

TEST(RObs1, HealthSamplerClockUseIsExemptOnlyUnderObs) {
  // The health sampler's cadence clock (wait_for deadlines, EWMA deltas)
  // lives in util/obs/health.cpp and rides the same allowlist as trace.cpp;
  // the identical code outside the obs layer stays a finding.
  const auto allowed = run("src/util/obs/health.cpp", R"cpp(
    auto deadline = std::chrono::steady_clock::now() + interval;
  )cpp");
  EXPECT_FALSE(has_rule(allowed, "R-OBS1"));

  const auto flagged = run("src/core/health.cpp", R"cpp(
    auto deadline = std::chrono::steady_clock::now() + interval;
  )cpp");
  EXPECT_TRUE(has_rule(flagged, "R-OBS1"));
}

TEST(RObs1, SuppressionComment) {
  const auto findings = run("src/core/score.cpp", R"cpp(
    // seg-lint: allow(R-OBS1)
    auto t = std::chrono::steady_clock::now();
  )cpp");
  EXPECT_FALSE(has_rule(findings, "R-OBS1"));
}

TEST(RObs1, LiteralsNeverMatch) {
  const auto findings = run("src/core/score.cpp", R"cpp(
    const char* doc = "steady_clock and Stopwatch live in util/obs";
  )cpp");
  EXPECT_FALSE(has_rule(findings, "R-OBS1"));
}

// --- R-MEM1: raw mapping syscalls outside util/mmap_file ---------------------

TEST(RMem1, FlagsRawMappingCalls) {
  const auto findings = run("src/graph/graph_compressed.cpp", R"cpp(
    void* load(int fd, size_t n) { return mmap(nullptr, n, 1, 2, fd, 0); }
    void drop(void* p, size_t n) { munmap(p, n); madvise(p, n, 4); }
  )cpp");
  EXPECT_TRUE(has_rule(findings, "R-MEM1"));
}

TEST(RMem1, FlagsSyscallNumberEvasion) {
  const auto findings = run("src/graph/graph_compressed.cpp", R"cpp(
    long bind_pages(void* p, size_t n) { return syscall(__NR_mbind, p, n); }
  )cpp");
  EXPECT_TRUE(has_rule(findings, "R-MEM1"));
}

TEST(RMem1, MmapFileWrapperIsExempt) {
  const auto findings = run("src/util/mmap_file.cpp", R"cpp(
    void* map(int fd, size_t n) { return ::mmap(nullptr, n, 1, 2, fd, 0); }
    void unmap(void* p, size_t n) { ::munmap(p, n); }
  )cpp");
  EXPECT_FALSE(has_rule(findings, "R-MEM1"));
}

TEST(RMem1, IgnoresWrapperUseAndPlainIdentifiers) {
  const auto findings = run("src/graph/graph_compressed.cpp", R"cpp(
    util::MmapFile mapped(path);
    bool use_mmap = backing == "mmap";
  )cpp");
  EXPECT_FALSE(has_rule(findings, "R-MEM1"));
}

TEST(RMem1, SuppressionComment) {
  const auto findings = run("src/graph/graph_compressed.cpp", R"cpp(
    // seg-lint: allow(R-MEM1)
    void drop(void* p, size_t n) { munmap(p, n); }
  )cpp");
  EXPECT_FALSE(has_rule(findings, "R-MEM1"));
}

TEST(RMem1, LiteralsNeverMatch) {
  const auto findings = run("src/graph/graph_compressed.cpp", R"cpp(
    const char* doc = "raw mmap( and munmap( belong in util/mmap_file";
  )cpp");
  EXPECT_FALSE(has_rule(findings, "R-MEM1"));
}

// --- R-RACE1: vector<bool> ---------------------------------------------------

TEST(RRace1, FlagsVectorBoolEverywhere) {
  const auto findings = run("src/graph/mask.h", R"cpp(
    #pragma once
    std::vector<bool> keep_mask(std::size_t n);
  )cpp");
  EXPECT_TRUE(has_rule(findings, "R-RACE1"));
}

TEST(RRace1, ByteVectorPasses) {
  const auto findings = run("src/graph/mask.h", R"cpp(
    #pragma once
    std::vector<std::uint8_t> keep_mask(std::size_t n);
    std::vector<Bool> wrapped;
  )cpp");
  EXPECT_FALSE(has_rule(findings, "R-RACE1"));
}

TEST(RRace1, SuppressionComment) {
  const auto findings = run("src/graph/mask.h", R"cpp(
    #pragma once
    // Serial-only API, packed on purpose.  seg-lint: allow(R-RACE1)
    std::vector<bool> legacy_mask(std::size_t n);
  )cpp");
  EXPECT_FALSE(has_rule(findings, "R-RACE1"));
}

// --- R-RACE2: unpartitioned writes in parallel bodies ------------------------

TEST(RRace2, FlagsGrowthOfByRefCapture) {
  const auto findings = run("src/graph/build.cpp", R"cpp(
    void collect(std::vector<int>& out) {
      util::parallel_for(100, [&](std::size_t i) {
        out.push_back(static_cast<int>(i));
      });
    }
  )cpp");
  ASSERT_TRUE(has_rule(findings, "R-RACE2"));
}

TEST(RRace2, FlagsUnpartitionedSubscriptWrite) {
  // The index is a captured value with no worker-local component: every
  // iteration hits the same slot.
  const auto findings = run("src/graph/build.cpp", R"cpp(
    void tally(std::vector<long>& totals, std::size_t slot) {
      util::parallel_for(100, [&](std::size_t i) {
        totals[slot] += static_cast<long>(i);
      });
    }
  )cpp");
  EXPECT_TRUE(has_rule(findings, "R-RACE2"));
}

TEST(RRace2, IndirectWorkerLocalIndexIsTrusted) {
  // out[remap[m]] is the project's injective-remap idiom (each worker owns
  // the slot its remapped id points at); the heuristic trusts any index
  // expression containing a worker-local identifier.
  const auto findings = run("src/graph/build.cpp", R"cpp(
    void scatter(std::vector<int>& out, const std::vector<int>& remap) {
      util::parallel_for(remap.size(), [&](std::size_t m) {
        out[remap[m]] = static_cast<int>(m);
      });
    }
  )cpp");
  EXPECT_FALSE(has_rule(findings, "R-RACE2"));
}

TEST(RRace2, PartitionedWritesAndLocalsPass) {
  const auto findings = run("src/graph/build.cpp", R"cpp(
    void fill(std::vector<int>& out, std::vector<Acc>& accs) {
      util::parallel_for(out.size(), [&](std::size_t i) {
        out[i] = compute(i);
      });
      util::parallel_chunks(out.size(), 0, [&](std::size_t chunk, std::size_t begin,
                                               std::size_t end) {
        auto& acc = accs[chunk];
        std::vector<int> local;
        for (std::size_t i = begin; i < end; ++i) {
          const auto key = static_cast<int>(i);
          local.push_back(key);
          out[key] = key;
        }
        acc.merge(local);
      });
    }
  )cpp");
  EXPECT_FALSE(has_rule(findings, "R-RACE2"));
}

TEST(RRace2, ByValueLambdaPasses) {
  const auto findings = run("src/graph/build.cpp", R"cpp(
    void observe(std::vector<int> snapshot) {
      util::parallel_for(10, [snapshot](std::size_t i) {
        snapshot.push_back(static_cast<int>(i));
      });
    }
  )cpp");
  EXPECT_FALSE(has_rule(findings, "R-RACE2"));
}

TEST(RRace2, SuppressionComment) {
  const auto findings = run("src/graph/build.cpp", R"cpp(
    void collect(std::vector<int>& out) {
      util::parallel_for(100, [&](std::size_t i) {
        // Guarded by a mutex in the caller.  seg-lint: allow(R-RACE2)
        out.push_back(static_cast<int>(i));
      });
    }
  )cpp");
  EXPECT_FALSE(has_rule(findings, "R-RACE2"));
}

// --- R-HDR1 / R-HDR2: header hygiene ----------------------------------------

TEST(RHdr1, FlagsMissingPragmaOnce) {
  const auto findings = run("src/util/thing.h", R"cpp(
    struct Thing {};
  )cpp");
  EXPECT_TRUE(has_rule(findings, "R-HDR1"));
}

TEST(RHdr1, PragmaAfterCommentBlockPasses) {
  const auto findings = run("src/util/thing.h", R"cpp(
    // Banner comment first, like every header in this repo.
    #pragma once
    struct Thing {};
  )cpp");
  EXPECT_FALSE(has_rule(findings, "R-HDR1"));
}

TEST(RHdr1, CppFilesAreNotChecked) {
  const auto findings = run("src/util/thing.cpp", "struct Thing {};\n");
  EXPECT_FALSE(has_rule(findings, "R-HDR1"));
}

TEST(RHdr2, FlagsUsingNamespaceInHeaderOnly) {
  const auto header = run("src/util/thing.h", R"cpp(
    #pragma once
    using namespace std;
  )cpp");
  EXPECT_TRUE(has_rule(header, "R-HDR2"));
  const auto source = run("src/util/thing.cpp", "using namespace std;\n");
  EXPECT_FALSE(has_rule(source, "R-HDR2"));
}

TEST(RHdr2, SuppressionComment) {
  const auto findings = run("src/util/thing.h", R"cpp(
    #pragma once
    // seg-lint: allow(R-HDR2)
    using namespace std::literals;
  )cpp");
  EXPECT_FALSE(has_rule(findings, "R-HDR2"));
}

// --- R-API1: calls to deprecated entry points --------------------------------

namespace {
constexpr char kDeprecatedHeader[] = R"cpp(
  #pragma once
  struct Report {
    std::vector<Detection> detections_at(double threshold) const;
    // seg-deprecated
    std::vector<Detection> detections_at(double threshold, const Graph& graph) const;
  };
)cpp";
}  // namespace

TEST(RApi1, FlagsCallWithMatchingArity) {
  const auto findings = run({{"src/core/report.h", kDeprecatedHeader},
                             {"src/core/use.cpp", R"cpp(
    #include "core/report.h"
    void emit(const Report& report, const Graph& graph) {
      const auto hits = report.detections_at(0.5, graph);
    }
  )cpp"}});
  EXPECT_TRUE(has_rule(findings, "R-API1"));
}

TEST(RApi1, ReplacementOverloadWithDifferentArityPasses) {
  const auto findings = run({{"src/core/report.h", kDeprecatedHeader},
                             {"src/core/use.cpp", R"cpp(
    #include "core/report.h"
    void emit(const Report& report) {
      const auto hits = report.detections_at(0.5);
    }
  )cpp"}});
  EXPECT_FALSE(has_rule(findings, "R-API1"));
}

TEST(RApi1, DefinitionAndHeaderAreNotFlagged) {
  const auto cpp_findings = run({{"src/core/report.h", kDeprecatedHeader},
                                 {"src/core/report.cpp", R"cpp(
    #include "core/report.h"
    std::vector<Detection> Report::detections_at(double threshold,
                                                 const Graph& graph) const {
      return {};
    }
  )cpp"}});
  EXPECT_FALSE(has_rule(cpp_findings, "R-API1"));
  const auto header_findings = run("src/core/report.h", kDeprecatedHeader);
  EXPECT_FALSE(has_rule(header_findings, "R-API1"));
}

TEST(RApi1, SuppressionComment) {
  const auto findings = run({{"src/core/report.h", kDeprecatedHeader},
                             {"src/core/use.cpp", R"cpp(
    #include "core/report.h"
    void emit(const Report& report, const Graph& graph) {
      // seg-lint: allow(R-API1)
      const auto hits = report.detections_at(0.5, graph);
    }
  )cpp"}});
  EXPECT_FALSE(has_rule(findings, "R-API1"));
}

// The ingestion redesign's deprecation surface: ingest_day survives as a
// tagged adapter while ingest_stream is the replacement entry point.
namespace {
constexpr char kPipelineHeader[] = R"cpp(
  #pragma once
  class Pipeline {
   public:
    IngestStats ingest_stream(TraceSource& source, const BlacklistProvider& blacklist,
                              const NameSet& whitelist, const DayCallback& on_day);
    // seg-deprecated
    PreparedDay ingest_day(const DayTrace& trace, const NameSet& blacklist,
                           const NameSet& whitelist);
  };
)cpp";
}  // namespace

TEST(RApi1, FlagsLegacyIngestDayOutsideTests) {
  const auto findings = run({{"src/core/pipeline.h", kPipelineHeader},
                             {"bench/bench_thing.cpp", R"cpp(
    #include "core/pipeline.h"
    void go(Pipeline& pipeline, const DayTrace& trace, const NameSet& bl,
            const NameSet& wl) {
      const auto day = pipeline.ingest_day(trace, bl, wl);
    }
  )cpp"}});
  EXPECT_TRUE(has_rule(findings, "R-API1"));
}

TEST(RApi1, IngestStreamReplacementPasses) {
  const auto findings = run({{"src/core/pipeline.h", kPipelineHeader},
                             {"bench/bench_thing.cpp", R"cpp(
    #include "core/pipeline.h"
    void go(Pipeline& pipeline, TraceSource& source, const BlacklistProvider& bl,
            const NameSet& wl, const DayCallback& on_day) {
      const auto stats = pipeline.ingest_stream(source, bl, wl, on_day);
    }
  )cpp"}});
  EXPECT_FALSE(has_rule(findings, "R-API1"));
}

TEST(RApi1, TestFilesMayKeepLegacyIngestDay) {
  // The batch-vs-stream parity tests deliberately call the adapter.
  const auto findings = run({{"src/core/pipeline.h", kPipelineHeader},
                             {"tests/core/pipeline_test.cpp", R"cpp(
    #include "core/pipeline.h"
    void go(Pipeline& pipeline, const DayTrace& trace, const NameSet& bl,
            const NameSet& wl) {
      const auto day = pipeline.ingest_day(trace, bl, wl);
    }
  )cpp"}});
  EXPECT_FALSE(has_rule(findings, "R-API1"));
}

// --- Engine plumbing ---------------------------------------------------------

TEST(Engine, AllowFileSuppressesEveryInstance) {
  const auto findings = run("src/util/thing.h", R"cpp(
    // seg-lint: allow-file(R-RACE1)
    #pragma once
    std::vector<bool> a;
    std::vector<bool> b;
  )cpp");
  EXPECT_FALSE(has_rule(findings, "R-RACE1"));
}

TEST(Engine, OnlyRulesFilter) {
  LintOptions options;
  options.only_rules = {"R-HDR1"};
  const auto model = ProjectModel::from_memory(
      {{"src/util/thing.h", "std::vector<bool> a;\n"}}, LayersConfig{});
  const auto findings = lint_model(model, options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R-HDR1");
}

TEST(Engine, FindingsCarryFileAndLine) {
  const auto findings = run("src/util/thing.h", "#pragma once\nstd::vector<bool> a;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/util/thing.h");
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_EQ(findings[0].rule, "R-RACE1");
}

// --- lexer edge cases --------------------------------------------------------

TEST(Lexer, RawStringsAreStrippedWhole) {
  // A rule trigger inside a raw string must not fire, including delimiters
  // with custom tags and embedded `)"` lookalikes.
  const auto findings = run("src/core/gen.cpp",
                            "const char* a = R\"(std::vector<bool> x; rand();)\";\n"
                            "const char* b = R\"tag(first )\" still inside )tag\";\n"
                            "std::vector<int> after_raw;\n");
  EXPECT_FALSE(has_rule(findings, "R-RACE1"));
  EXPECT_FALSE(has_rule(findings, "R-DET1"));

  // Lexing resumes correctly after the raw string: a real finding on the
  // next line still fires.
  const auto real = run("src/core/gen.cpp",
                        "const char* a = R\"(text)\";\nstd::vector<bool> flags;\n");
  ASSERT_TRUE(has_rule(real, "R-RACE1"));
  EXPECT_EQ(real[0].line, 2u);
}

TEST(Lexer, EncodingPrefixedRawStrings) {
  const auto findings = run("src/core/gen.cpp",
                            "auto a = u8R\"(rand();)\";\n"
                            "auto b = LR\"x(std::vector<bool> v;)x\";\n"
                            "auto c = uR\"(time(nullptr))\";\n"
                            "auto d = UR\"(std::random_device rd;)\";\n");
  EXPECT_TRUE(findings.empty());
}

TEST(Lexer, DigitSeparatorsDoNotDesyncTheTokenStream) {
  // `1'000'000` once opened a bogus char literal that swallowed following
  // code; everything after the number must still lex (and match rules).
  const auto findings = run("src/core/gen.cpp",
                            "const int big = 1'000'000;\n"
                            "const double f = 1'234.5'6;\n"
                            "std::vector<bool> flags;\n");
  ASSERT_TRUE(has_rule(findings, "R-RACE1"));
  EXPECT_EQ(findings[0].line, 3u);
}

TEST(Lexer, LineContinuationBackslashes) {
  // A backslash-newline splices lines; the directive still parses and the
  // rule trigger on the continued line still fires.
  const auto findings = run("src/core/gen.cpp",
                            "std::vector<\\\nbool> flags;\n");
  EXPECT_TRUE(has_rule(findings, "R-RACE1"));
}

TEST(Lexer, IncludeDirectivesExtractedOutsideLiteralsOnly) {
  const auto lexed = lex(
      "#include \"graph/graph.h\"\n"
      "#  include   <vector>\n"
      "# \\\ninclude \"util/split.h\"\n"
      "// #include \"comment/skipped.h\"\n"
      "const char* s = \"#include \\\"string/skipped.h\\\"\";\n"
      "const char* r = R\"(#include \"raw/skipped.h\")\";\n");
  ASSERT_EQ(lexed.includes.size(), 3u);
  EXPECT_EQ(lexed.includes[0].target, "graph/graph.h");
  EXPECT_TRUE(lexed.includes[0].quoted);
  EXPECT_EQ(lexed.includes[0].line, 1u);
  EXPECT_EQ(lexed.includes[1].target, "vector");
  EXPECT_FALSE(lexed.includes[1].quoted);
  EXPECT_EQ(lexed.includes[2].target, "util/split.h");
}

}  // namespace
}  // namespace seg::lint
