// Determinism tests for the streaming pipeline: a multi-day session must
// be invisible in the output. Every streamed graph is byte-identical to a
// from-scratch prepare_graph() of the same trace, and classify() scores
// are bit-identical across thread counts, to the one-shot flow, to
// classifying the day's graph mapped from a packed graphc file, and to a
// session restarted from its stores and model.
#include "core/pipeline.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/segugio.h"
#include "dns/trace_source.h"
#include "graph/graph_compressed.h"
#include "sim/world.h"
#include "util/obs/obs.h"
#include "util/parallel.h"

namespace seg::core {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static sim::World& world() {
    static sim::World instance{sim::ScenarioConfig::small()};
    return instance;
  }

  static SegugioConfig fast_config() {
    SegugioConfig config;
    config.forest.num_trees = 20;
    config.forest.num_threads = 1;
    return config;
  }

  static std::string graph_bytes(const graph::GraphView& graph) {
    std::ostringstream blob;
    graph::save_graph_compressed(graph, blob);
    return std::move(blob).str();
  }

  // Streams one in-memory day through the session, the way a capture
  // holding only that day arrives.
  static PreparedDay ingest(Pipeline& pipeline, const dns::DayTrace& trace,
                            const graph::NameSet& blacklist, const graph::NameSet& whitelist) {
    dns::DayTraceSource source(trace);
    PreparedDay prepared;
    pipeline.ingest_stream(
        source, [&](dns::Day) -> const graph::NameSet& { return blacklist; }, whitelist,
        [&](PreparedDay&& day) { prepared = std::move(day); });
    return prepared;
  }
};

// A session borrows its history stores, so a temporary one must not bind:
// it would die before the session that reads it.
template <typename Activity, typename Pdns>
concept AbsorbsHistory = requires(Pipeline& pipeline, Activity&& activity, Pdns&& pdns) {
  pipeline.absorb_history(std::forward<Activity>(activity), std::forward<Pdns>(pdns));
};
using Psl = const dns::PublicSuffixList&;
using Activity = const dns::DomainActivityIndex&;
using Pdns = const dns::PassiveDnsDb&;
static_assert(std::is_constructible_v<Pipeline, Psl, Activity, Pdns>);
static_assert(!std::is_constructible_v<Pipeline, Psl, dns::DomainActivityIndex, Pdns>);
static_assert(!std::is_constructible_v<Pipeline, Psl, Activity, dns::PassiveDnsDb>);
static_assert(!std::is_constructible_v<Pipeline, Psl, dns::DomainActivityIndex, dns::PassiveDnsDb>);
static_assert(AbsorbsHistory<Activity, Pdns>);
static_assert(!AbsorbsHistory<dns::DomainActivityIndex, Pdns>);
static_assert(!AbsorbsHistory<Activity, dns::PassiveDnsDb>);
static_assert(!AbsorbsHistory<dns::DomainActivityIndex, dns::PassiveDnsDb>);

TEST_F(PipelineTest, SessionReadsTheCallersStores) {
  auto& w = world();
  const Pipeline seeded(w.psl(), w.activity(), w.pdns(), fast_config());
  EXPECT_EQ(&seeded.activity(), &w.activity());
  EXPECT_EQ(&seeded.pdns(), &w.pdns());

  // Without stores, every session reads one shared empty pair.
  Pipeline pipeline(w.psl(), fast_config());
  const Pipeline other(w.psl(), fast_config());
  EXPECT_EQ(&pipeline.activity(), &other.activity());
  EXPECT_EQ(&pipeline.pdns(), &other.pdns());
  EXPECT_EQ(pipeline.activity().tracked_names(), 0u);
  EXPECT_EQ(pipeline.pdns().observation_count(), 0u);

  dns::DomainActivityIndex activity;
  dns::PassiveDnsDb pdns;
  pipeline.absorb_history(activity, pdns);
  EXPECT_EQ(&pipeline.activity(), &activity);
  EXPECT_EQ(&pipeline.pdns(), &pdns);
  pipeline.absorb_history(activity, pdns);  // again: nothing changes
  EXPECT_EQ(&pipeline.activity(), &activity);
  EXPECT_EQ(&pipeline.pdns(), &pdns);
  // A store the caller grows between days is read as it stands.
  activity.mark_active("grown.example.com", 4);
  pdns.add_observation(4, dns::IpV4::parse("10.1.2.3"), dns::PdnsAssociation::kMalware);
  EXPECT_EQ(pipeline.activity().active_days("grown.example.com", 0, 9), 1);
  EXPECT_TRUE(pipeline.pdns().ip_malware_associated(dns::IpV4::parse("10.1.2.3"), 0, 9));
  EXPECT_EQ(other.activity().tracked_names(), 0u);
}

TEST_F(PipelineTest, ThreeDayStreamedIngestMatchesFromScratchBuilds) {
  auto& w = world();
  const auto config = fast_config();
  std::vector<dns::DayTrace> traces;
  std::vector<graph::NameSet> blacklists;
  for (dns::Day day = 0; day < 3; ++day) {
    traces.push_back(w.generate_day(0, day));
    blacklists.push_back(w.blacklist().as_of(sim::BlacklistKind::kCommercial, day));
  }
  const auto whitelist = w.whitelist().all();

  Pipeline pipeline(w.psl(), w.activity(), w.pdns(), config);
  for (dns::Day day = 0; day < 3; ++day) {
    const auto prepared =
        ingest(pipeline, traces[static_cast<std::size_t>(day)],
               blacklists[static_cast<std::size_t>(day)], whitelist);
    EXPECT_EQ(prepared.day, day);
    const auto scratch =
        Segugio::prepare_graph(traces[static_cast<std::size_t>(day)], w.psl(),
                               blacklists[static_cast<std::size_t>(day)], whitelist,
                               config.prepare_options());
    EXPECT_EQ(graph_bytes(prepared.graph), graph_bytes(scratch.graph))
        << "streamed day " << day << " diverges from the from-scratch build";
    EXPECT_EQ(prepared.prune_stats.domains_after, scratch.prune_stats.domains_after);
    EXPECT_EQ(prepared.prune_stats.edges_after, scratch.prune_stats.edges_after);
  }
}

TEST_F(PipelineTest, ScoresBitIdenticalAcrossThreadCountsAndSerialFlow) {
  auto& w = world();
  const auto config = fast_config();
  const auto train_trace = w.generate_day(0, 5);
  const auto train_blacklist = w.blacklist().as_of(sim::BlacklistKind::kCommercial, 5);
  const auto test_trace = w.generate_day(0, 6);
  const auto test_blacklist = w.blacklist().as_of(sim::BlacklistKind::kCommercial, 6);
  const auto whitelist = w.whitelist().all();

  const auto run_session = [&] {
    Pipeline pipeline(w.psl(), w.activity(), w.pdns(), config);
    const auto train_day = ingest(pipeline, train_trace, train_blacklist, whitelist);
    pipeline.train(train_day);
    const auto test_day = ingest(pipeline, test_trace, test_blacklist, whitelist);
    auto report = pipeline.classify(test_day);
    return std::make_pair(graph_bytes(test_day.graph), std::move(report));
  };

  util::set_parallelism(1);
  const auto [serial_graph, serial_report] = run_session();
  util::set_parallelism(8);
  const auto [parallel_graph, parallel_report] = run_session();
  util::set_parallelism(0);

  EXPECT_EQ(serial_graph, parallel_graph);
  ASSERT_EQ(serial_report.scores.size(), parallel_report.scores.size());
  for (std::size_t i = 0; i < serial_report.scores.size(); ++i) {
    EXPECT_EQ(serial_report.scores[i].name, parallel_report.scores[i].name);
    EXPECT_EQ(serial_report.scores[i].score, parallel_report.scores[i].score);
  }

  // The streamed session must also match the one-shot flow over the same
  // stores exactly.
  const auto train_prep = Segugio::prepare_graph(train_trace, w.psl(), train_blacklist,
                                                 whitelist, config.prepare_options());
  Segugio segugio(config);
  segugio.train(train_prep.graph, w.activity(), w.pdns());
  const auto test_prep = Segugio::prepare_graph(test_trace, w.psl(), test_blacklist,
                                                whitelist, config.prepare_options());
  const auto oneshot = segugio.classify(test_prep.graph, w.activity(), w.pdns());
  ASSERT_EQ(oneshot.scores.size(), serial_report.scores.size());
  for (std::size_t i = 0; i < oneshot.scores.size(); ++i) {
    EXPECT_EQ(oneshot.scores[i].name, serial_report.scores[i].name);
    EXPECT_EQ(oneshot.scores[i].score, serial_report.scores[i].score);
  }
}

TEST_F(PipelineTest, ObservabilityNeverPerturbsScoresOrArtifacts) {
  // The obs contract (ISSUE 5): with the tracer recording and metrics being
  // observed, every domain score and serialized artifact is byte-identical
  // to a run with observability fully disabled. Spans read the clock either
  // way; metrics are telemetry that nothing in the pipeline reads back.
  auto& w = world();
  const auto config = fast_config();
  const auto train_trace = w.generate_day(0, 5);
  const auto train_blacklist = w.blacklist().as_of(sim::BlacklistKind::kCommercial, 5);
  const auto test_trace = w.generate_day(0, 6);
  const auto test_blacklist = w.blacklist().as_of(sim::BlacklistKind::kCommercial, 6);
  const auto whitelist = w.whitelist().all();

  struct Artifacts {
    std::string graph;
    std::string model;
    std::vector<std::pair<std::string, double>> scores;
  };
  const auto run_session = [&] {
    Pipeline pipeline(w.psl(), w.activity(), w.pdns(), config);
    const auto train_day = ingest(pipeline, train_trace, train_blacklist, whitelist);
    pipeline.train(train_day);
    const auto test_day = ingest(pipeline, test_trace, test_blacklist, whitelist);
    const auto report = pipeline.classify(test_day);
    Artifacts artifacts;
    artifacts.graph = graph_bytes(test_day.graph);
    std::ostringstream model_blob;
    pipeline.detector().save(model_blob);
    artifacts.model = std::move(model_blob).str();
    for (const auto& score : report.scores) {
      artifacts.scores.emplace_back(score.name, score.score);
    }
    return artifacts;
  };

  obs::Tracer::instance().set_enabled(false);
  obs::Registry::instance().reset();
  const auto plain = run_session();

  obs::Tracer::instance().clear();
  obs::Tracer::instance().set_enabled(true);
  const auto observed = run_session();

  // The observed run actually recorded telemetry...
  const auto records = obs::Tracer::instance().snapshot();
  EXPECT_FALSE(records.empty());
  EXPECT_EQ(obs::validate_spans(records), "");
  EXPECT_GT(obs::Registry::instance().counter("seg_classify_rows_total").value(), 0u);
  obs::Tracer::instance().set_enabled(false);
  obs::Tracer::instance().clear();

  // ...and perturbed nothing.
  EXPECT_EQ(plain.graph, observed.graph);
  EXPECT_EQ(plain.model, observed.model);
  ASSERT_EQ(plain.scores.size(), observed.scores.size());
  for (std::size_t i = 0; i < plain.scores.size(); ++i) {
    EXPECT_EQ(plain.scores[i].first, observed.scores[i].first);
    EXPECT_EQ(plain.scores[i].second, observed.scores[i].second);
  }

  // The v2 surfaces uphold the same contract: a session with the journal
  // attached, drift computed against a pinned baseline, and the health
  // sampler thread running concurrently must still emit bit-identical
  // scores and artifacts.
  obs::Registry::instance().reset();
  obs::HealthSampler health;
  health.start();
  std::ostringstream journal_blob;
  Artifacts journaled;
  {
    Pipeline pipeline(w.psl(), w.activity(), w.pdns(), config);
    pipeline.set_journal(&journal_blob);
    const auto train_day = ingest(pipeline, train_trace, train_blacklist, whitelist);
    pipeline.train(train_day);
    const auto test_day = ingest(pipeline, test_trace, test_blacklist, whitelist);
    const auto report = pipeline.classify(test_day);
    pipeline.flush_journal();
    journaled.graph = graph_bytes(test_day.graph);
    std::ostringstream model_blob;
    pipeline.detector().save(model_blob);
    journaled.model = std::move(model_blob).str();
    for (const auto& score : report.scores) {
      journaled.scores.emplace_back(score.name, score.score);
    }
  }
  health.sample_once();
  health.stop();

  EXPECT_EQ(obs::validate_obs_journal(journal_blob.str()), "");
  EXPECT_GE(obs::Registry::instance().counter("seg_health_samples_total").value(), 1u);
  EXPECT_EQ(plain.graph, journaled.graph);
  EXPECT_EQ(plain.model, journaled.model);
  ASSERT_EQ(plain.scores.size(), journaled.scores.size());
  for (std::size_t i = 0; i < plain.scores.size(); ++i) {
    EXPECT_EQ(plain.scores[i].first, journaled.scores[i].first);
    EXPECT_EQ(plain.scores[i].second, journaled.scores[i].second);
  }
}

TEST_F(PipelineTest, JournalAndDriftGaugesAreByteIdenticalAcrossThreadCounts) {
  // The obs journal is part of the deterministic surface: a multi-day
  // train+classify session journaled at 1 worker thread and at 8 must
  // produce the same bytes, and every seg_drift_* gauge must carry the
  // same value. (Nothing wall-clock or machine-dependent enters an entry,
  // precisely so this holds.)
  auto& w = world();
  const auto config = fast_config();
  std::vector<dns::DayTrace> traces;
  std::vector<graph::NameSet> blacklists;
  for (dns::Day day = 0; day < 3; ++day) {
    traces.push_back(w.generate_day(0, day));
    blacklists.push_back(w.blacklist().as_of(sim::BlacklistKind::kCommercial, day));
  }
  const auto whitelist = w.whitelist().all();

  const auto run_journaled = [&] {
    obs::Registry::instance().reset();
    Pipeline pipeline(w.psl(), w.activity(), w.pdns(), config);
    std::ostringstream journal_blob;
    pipeline.set_journal(&journal_blob);
    bool trained = false;
    for (dns::Day day = 0; day < 3; ++day) {
      const auto prepared =
          ingest(pipeline, traces[static_cast<std::size_t>(day)],
                 blacklists[static_cast<std::size_t>(day)], whitelist);
      if (!trained) {
        pipeline.train(prepared);
        trained = true;
      }
      pipeline.classify(prepared);
    }
    pipeline.flush_journal();
    std::vector<std::pair<std::string, double>> drift_gauges;
    for (const obs::Gauge* gauge : obs::Registry::instance().gauges()) {
      if (gauge->name().rfind("seg_drift_", 0) == 0) {
        drift_gauges.emplace_back(gauge->name(), gauge->value());
      }
    }
    return std::make_pair(std::move(journal_blob).str(), std::move(drift_gauges));
  };

  util::set_parallelism(1);
  const auto [serial_journal, serial_gauges] = run_journaled();
  util::set_parallelism(8);
  const auto [parallel_journal, parallel_gauges] = run_journaled();
  util::set_parallelism(0);

  EXPECT_EQ(obs::validate_obs_journal(serial_journal), "");
  EXPECT_EQ(serial_journal, parallel_journal)
      << "journal bytes diverge across thread counts";
  ASSERT_FALSE(serial_gauges.empty()) << "expected drift gauges after day 1+";
  ASSERT_EQ(serial_gauges.size(), parallel_gauges.size());
  for (std::size_t i = 0; i < serial_gauges.size(); ++i) {
    EXPECT_EQ(serial_gauges[i].first, parallel_gauges[i].first);
    EXPECT_EQ(serial_gauges[i].second, parallel_gauges[i].second)
        << "drift gauge " << serial_gauges[i].first;
  }

  // The journal recorded all three days, and days 1+ carry drift gauges
  // against the pinned day-0 baseline.
  std::istringstream journal_in{std::string(serial_journal)};
  const obs::JournalRead journal = obs::read_journal(journal_in);
  EXPECT_EQ(journal.torn_tail, "");
  const auto& entries = journal.entries;
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_NE(entries[0].find_histogram("scores"), nullptr);
  EXPECT_NE(entries[2].find_gauge("drift_score_psi"), nullptr);
}

TEST_F(PipelineTest, ReportAttributionMatchesGraphLookup) {
  auto& w = world();
  const auto config = fast_config();
  const auto train_trace = w.generate_day(0, 8);
  const auto train_blacklist = w.blacklist().as_of(sim::BlacklistKind::kCommercial, 8);
  const auto test_trace = w.generate_day(0, 9);
  const auto test_blacklist = w.blacklist().as_of(sim::BlacklistKind::kCommercial, 9);
  const auto whitelist = w.whitelist().all();

  Pipeline pipeline(w.psl(), w.activity(), w.pdns(), config);
  const auto train_day = ingest(pipeline, train_trace, train_blacklist, whitelist);
  pipeline.train(train_day);
  const auto test_day = ingest(pipeline, test_trace, test_blacklist, whitelist);
  const auto report = pipeline.classify(test_day);

  // Threshold 0 keeps every scored domain, exercising the full CSR.
  const auto captured = report.detections_at(0.0);
  ASSERT_EQ(captured.size(), report.scores.size());
  for (const auto& detection : captured) {
    std::vector<std::string> via_graph;
    for (const auto m : test_day.graph.machines_of(detection.domain.id)) {
      via_graph.emplace_back(test_day.graph.machine_name(m));
    }
    EXPECT_EQ(detection.machines, via_graph) << detection.domain.name;
    EXPECT_FALSE(detection.machines.empty());
  }
}

TEST_F(PipelineTest, MappedDayGraphsScoreLikeTheSession) {
  // Every streamed day, written packed and mapped back, must score exactly
  // like the session's own heap graph: the zero-copy view is a backing,
  // not a different detector.
  auto& w = world();
  const auto config = fast_config();
  dns::DayTrace stream;
  std::vector<graph::NameSet> blacklists;
  for (dns::Day day = 15; day < 18; ++day) {
    const auto trace = w.generate_day(0, day);
    stream.records.insert(stream.records.end(), trace.records.begin(), trace.records.end());
    blacklists.push_back(w.blacklist().as_of(sim::BlacklistKind::kCommercial, day));
  }
  const auto whitelist = w.whitelist().all();
  const auto path = (std::filesystem::temp_directory_path() /
                     ("seg_pipeline_mapped_" + std::to_string(::getpid()) + ".graphc"))
                        .string();

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    util::set_parallelism(threads);
    Pipeline pipeline(w.psl(), w.activity(), w.pdns(), config);
    dns::DayTraceSource source(stream);
    std::size_t days = 0;
    pipeline.ingest_stream(
        source,
        [&](dns::Day day) -> const graph::NameSet& {
          return blacklists[static_cast<std::size_t>(day - 15)];
        },
        whitelist, [&](PreparedDay&& day) {
          if (days++ == 0) {
            pipeline.train(day);
          }
          {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            graph::save_graph_compressed(day.graph, out);
          }
          const auto mapped = graph::map_graph(path);
          const auto heap = pipeline.classify(day);
          const auto zero_copy =
              pipeline.detector().classify(mapped.view, pipeline.activity(), pipeline.pdns());
          ASSERT_EQ(heap.scores.size(), zero_copy.scores.size());
          for (std::size_t i = 0; i < heap.scores.size(); ++i) {
            EXPECT_EQ(heap.scores[i].name, zero_copy.scores[i].name);
            EXPECT_EQ(heap.scores[i].score, zero_copy.scores[i].score)
                << heap.scores[i].name << " at " << threads << " threads";
          }
        });
    EXPECT_EQ(days, 3u);
  }
  util::set_parallelism(0);
  std::filesystem::remove(path);
}

TEST_F(PipelineTest, RestartedSessionMatchesContinuousSession) {
  // A session's output depends only on its history stores and its model:
  // a fresh Pipeline over the reloaded stores with the saved model
  // prepares and scores the next day exactly like the session that never
  // stopped.
  auto& w = world();
  const auto config = fast_config();
  const auto day1_trace = w.generate_day(0, 11);
  const auto day1_blacklist = w.blacklist().as_of(sim::BlacklistKind::kCommercial, 11);
  const auto day2_trace = w.generate_day(0, 12);
  const auto day2_blacklist = w.blacklist().as_of(sim::BlacklistKind::kCommercial, 12);
  const auto whitelist = w.whitelist().all();

  // Continuous session: train on day 1, classify day 2.
  Pipeline continuous(w.psl(), w.activity(), w.pdns(), config);
  continuous.train(ingest(continuous, day1_trace, day1_blacklist, whitelist));
  const auto cont_day2 = ingest(continuous, day2_trace, day2_blacklist, whitelist);
  const auto cont_report = continuous.classify(cont_day2);

  // Restarted session: train on day 1, save stores and model, then a new
  // process (fresh Pipeline over the reloaded stores) classifies day 2.
  std::ostringstream activity_blob;
  std::ostringstream pdns_blob;
  std::ostringstream model_blob;
  {
    Pipeline before_restart(w.psl(), w.activity(), w.pdns(), config);
    before_restart.train(ingest(before_restart, day1_trace, day1_blacklist, whitelist));
    before_restart.activity().save(activity_blob);
    before_restart.pdns().save(pdns_blob);
    before_restart.detector().save(model_blob);
  }
  std::istringstream activity_in(activity_blob.str());
  std::istringstream pdns_in(pdns_blob.str());
  std::istringstream model_in(model_blob.str());
  // The session reads the reloaded stores in place, so they outlive it.
  const auto activity = dns::DomainActivityIndex::load(activity_in);
  const auto pdns = dns::PassiveDnsDb::load(pdns_in);
  Pipeline after_restart(w.psl(), activity, pdns, config);
  after_restart.detector() = Segugio::load(model_in);

  const auto post_day2 = ingest(after_restart, day2_trace, day2_blacklist, whitelist);
  EXPECT_EQ(graph_bytes(post_day2.graph), graph_bytes(cont_day2.graph))
      << "post-restart ingest diverges from the continuous session";
  const auto post_report = after_restart.classify(post_day2);
  ASSERT_EQ(post_report.scores.size(), cont_report.scores.size());
  ASSERT_FALSE(post_report.scores.empty());
  for (std::size_t i = 0; i < cont_report.scores.size(); ++i) {
    EXPECT_EQ(post_report.scores[i].name, cont_report.scores[i].name);
    EXPECT_EQ(post_report.scores[i].score, cont_report.scores[i].score)
        << cont_report.scores[i].name;
  }
}

}  // namespace
}  // namespace seg::core
