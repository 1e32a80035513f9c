// The ingest_stream() determinism contract: a streamed session — records
// pulled from a TraceSource, micro-batched through the bounded queue, cut
// at day boundaries — produces byte-identical artifacts (graphs, model,
// scores) to a one-day-at-a-time session fed from in-memory day traces, at
// any parallelism and any queue tuning, as long as the back-pressure
// policy is kBlock. A source that fails mid-day never hands that day out.
// This is the acceptance test for the streaming design; docs/ingestion.md
// points here.
#include "core/pipeline.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dns/trace_source.h"
#include "dns/wire/dnstap.h"
#include "graph/graph_compressed.h"
#include "sim/world.h"
#include "util/parallel.h"

namespace seg::core {
namespace {

class PipelineStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = (std::filesystem::temp_directory_path() /
             ("seg_stream_" + std::to_string(::getpid())))
                .string();
  }
  void TearDown() override {
    for (const auto& path : files_) {
      std::filesystem::remove(path);
    }
  }

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

  std::string temp_path(const std::string& suffix) {
    files_.push_back(base_ + suffix);
    return files_.back();
  }

  // Writes traces as one multi-day binlog: concatenated SEGTRC1 segments,
  // exactly what `cat day*.bin` produces in a deployment.
  std::string write_multiday_binlog(const std::vector<dns::DayTrace>& traces,
                                    const std::string& suffix) {
    const auto path = temp_path(suffix);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (const auto& trace : traces) {
      const auto segment = path + ".segment";
      dns::write_trace_binary(trace, segment);
      std::ifstream in(segment, std::ios::binary);
      out << in.rdbuf();
      std::filesystem::remove(segment);
    }
    return path;
  }

  // Everything a two-day train-then-classify session externalizes.
  struct Artifacts {
    std::string train_graph;
    std::string test_graph;
    std::string model;
    std::vector<std::pair<std::string, double>> scores;
  };

  static Artifacts capture_artifacts(Pipeline& pipeline, const PreparedDay& train_day,
                                     const PreparedDay& test_day,
                                     const DetectionReport& report) {
    Artifacts artifacts;
    artifacts.train_graph = graph_bytes(train_day.graph);
    artifacts.test_graph = graph_bytes(test_day.graph);
    std::ostringstream model_blob;
    pipeline.detector().save(model_blob);
    artifacts.model = std::move(model_blob).str();
    for (const auto& score : report.scores) {
      artifacts.scores.emplace_back(score.name, score.score);
    }
    return artifacts;
  }

  static void expect_identical(const Artifacts& streamed, const Artifacts& batch,
                               const std::string& label) {
    EXPECT_EQ(streamed.train_graph, batch.train_graph) << label << ": train graph";
    EXPECT_EQ(streamed.test_graph, batch.test_graph) << label << ": test graph";
    EXPECT_EQ(streamed.model, batch.model) << label << ": model";
    ASSERT_EQ(streamed.scores.size(), batch.scores.size()) << label;
    for (std::size_t i = 0; i < batch.scores.size(); ++i) {
      EXPECT_EQ(streamed.scores[i].first, batch.scores[i].first) << label << " #" << i;
      EXPECT_EQ(streamed.scores[i].second, batch.scores[i].second) << label << " #" << i;
    }
  }

  std::string base_;
  std::vector<std::string> files_;
};

TEST_F(PipelineStreamTest, BinlogReplayMatchesBatchSessionAtOneAndEightThreads) {
  auto& w = world();
  const auto config = fast_config();
  const std::vector<dns::DayTrace> traces = {w.generate_day(0, 5), w.generate_day(0, 6)};
  const std::vector<graph::NameSet> blacklists = {
      w.blacklist().as_of(sim::BlacklistKind::kCommercial, 5),
      w.blacklist().as_of(sim::BlacklistKind::kCommercial, 6)};
  const auto whitelist = w.whitelist().all();
  const auto binlog = write_multiday_binlog(traces, ".session.bin");
  const auto blacklist_for = [&](dns::Day day) -> const graph::NameSet& {
    return blacklists[static_cast<std::size_t>(day - 5)];
  };

  const auto run_batch = [&] {
    Pipeline pipeline(w.psl(), w.activity(), w.pdns(), config);
    const auto train_day = ingest(pipeline, traces[0], blacklists[0], whitelist);
    pipeline.train(train_day);
    const auto test_day = ingest(pipeline, traces[1], blacklists[1], whitelist);
    const auto report = pipeline.classify(test_day);
    return capture_artifacts(pipeline, train_day, test_day, report);
  };
  const auto run_streamed = [&](IngestStats* stats_out) {
    Pipeline pipeline(w.psl(), w.activity(), w.pdns(), config);
    dns::FileTraceSource source(binlog);  // format autodetected from the magic
    std::vector<PreparedDay> days;
    DetectionReport report;
    // The rollover callback drives the session live, like a deployment
    // would: train on the first completed day, classify the second.
    const auto stats = pipeline.ingest_stream(
        source, blacklist_for, whitelist, [&](PreparedDay&& day) {
          if (days.empty()) {
            pipeline.train(day);
          } else {
            report = pipeline.classify(day);
          }
          days.push_back(std::move(day));
        });
    if (stats_out != nullptr) {
      *stats_out = stats;
    }
    EXPECT_EQ(days.size(), 2u);
    EXPECT_EQ(days[0].day, 5);
    EXPECT_EQ(days[1].day, 6);
    return capture_artifacts(pipeline, days[0], days[1], report);
  };

  const std::uint64_t total_records = traces[0].records.size() + traces[1].records.size();
  for (const int parallelism : {1, 8}) {
    util::set_parallelism(parallelism);
    const auto batch = run_batch();
    IngestStats stats;
    const auto streamed = run_streamed(&stats);
    const auto label = "parallelism " + std::to_string(parallelism);
    expect_identical(streamed, batch, label);

    EXPECT_EQ(stats.records, total_records) << label;
    EXPECT_EQ(stats.days, 2u) << label;
    EXPECT_EQ(stats.wire_skipped, 0u) << label;
    // The blocking policy loses nothing: every record crossed the queue.
    EXPECT_EQ(stats.queue.pushed_records, total_records) << label;
    EXPECT_EQ(stats.queue.dropped_batches, 0u) << label;
    EXPECT_EQ(stats.queue.dropped_records, 0u) << label;
    EXPECT_EQ(stats.queue.popped_batches, stats.queue.pushed_batches) << label;
  }
  util::set_parallelism(0);
}

TEST_F(PipelineStreamTest, DnstapReplayMatchesBatchOverItsOwnDecodedRecords) {
  // dnstap identifies clients by address, so sim machine names arrive
  // hashed (see wire::machine_address) — the stream cannot match a batch
  // over the *original* trace. The contract is format-internal: streaming
  // a capture matches batch-ingesting what that same capture decodes to.
  auto& w = world();
  const auto config = fast_config();
  const auto trace = w.generate_day(0, 7);
  const auto blacklist = w.blacklist().as_of(sim::BlacklistKind::kCommercial, 7);
  const auto whitelist = w.whitelist().all();
  const auto path = temp_path(".day7.dnstap");
  dns::wire::write_dnstap_trace(trace, path);

  dns::FileTraceSource collect_source(path);
  std::vector<dns::DayTrace> decoded;
  dns::collect_days(collect_source, [&](dns::DayTrace&& day) {
    decoded.push_back(std::move(day));
  });
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].day, 7);

  Pipeline batch_pipeline(w.psl(), w.activity(), w.pdns(), config);
  const auto batch_day = ingest(batch_pipeline, decoded[0], blacklist, whitelist);

  Pipeline stream_pipeline(w.psl(), w.activity(), w.pdns(), config);
  dns::FileTraceSource stream_source(path);
  PreparedDay streamed_day;
  const auto stats = stream_pipeline.ingest_stream(
      stream_source, [&](dns::Day) -> const graph::NameSet& { return blacklist; },
      whitelist, [&](PreparedDay&& day) { streamed_day = std::move(day); });

  EXPECT_EQ(graph_bytes(streamed_day.graph), graph_bytes(batch_day.graph));
  EXPECT_EQ(streamed_day.prune_stats.domains_after, batch_day.prune_stats.domains_after);
  EXPECT_EQ(stats.days, 1u);
  EXPECT_EQ(stats.records, decoded[0].records.size());
  EXPECT_EQ(stats.wire_skipped, stream_source.skipped());
}

TEST_F(PipelineStreamTest, QueueTuningNeverChangesTheGraph) {
  auto& w = world();
  const auto config = fast_config();
  const auto trace = w.generate_day(0, 8);
  const auto blacklist = w.blacklist().as_of(sim::BlacklistKind::kCommercial, 8);
  const auto whitelist = w.whitelist().all();

  const auto run = [&](const IngestOptions& options, IngestStats* stats_out) {
    Pipeline pipeline(w.psl(), w.activity(), w.pdns(), config);
    dns::DayTraceSource source(trace);
    PreparedDay prepared;
    const auto stats = pipeline.ingest_stream(
        source, [&](dns::Day) -> const graph::NameSet& { return blacklist; },
        whitelist, [&](PreparedDay&& day) { prepared = std::move(day); }, options);
    if (stats_out != nullptr) {
      *stats_out = stats;
    }
    return graph_bytes(prepared.graph);
  };

  const auto reference = graph_bytes(
      Segugio::prepare_graph(trace, w.psl(), blacklist, whitelist, config.prepare_options())
          .graph);

  EXPECT_EQ(run(IngestOptions{}, nullptr), reference);

  IngestOptions tiny;  // forces real back-pressure: 3-record batches, 2 slots
  tiny.batch_records = 3;
  tiny.queue_capacity = 2;
  IngestStats tiny_stats;
  EXPECT_EQ(run(tiny, &tiny_stats), reference);
  EXPECT_EQ(tiny_stats.queue.dropped_batches, 0u);
  EXPECT_EQ(tiny_stats.queue.pushed_records, trace.records.size());
  EXPECT_LE(tiny_stats.queue.max_depth, 2u);
}

TEST_F(PipelineStreamTest, CountAndDropKeepsTheLedgerBalanced) {
  // kCountAndDrop trades completeness for freshness; what it may never do
  // is lose records *silently*. With drop-rate-aware sampling on (the
  // pipeline default for this policy), every source record is accounted
  // for exactly once: admitted, dropped whole-batch, or sampled out.
  auto& w = world();
  const auto config = fast_config();
  const auto trace = w.generate_day(0, 9);
  const auto blacklist = w.blacklist().as_of(sim::BlacklistKind::kCommercial, 9);

  Pipeline pipeline(w.psl(), w.activity(), w.pdns(), config);
  dns::DayTraceSource source(trace);
  IngestOptions options;
  options.policy = util::BackpressurePolicy::kCountAndDrop;
  options.batch_records = 2;
  options.queue_capacity = 1;
  PreparedDay prepared;
  const auto stats = pipeline.ingest_stream(
      source, [&](dns::Day) -> const graph::NameSet& { return blacklist; },
      w.whitelist().all(), [&](PreparedDay&& day) { prepared = std::move(day); }, options);

  EXPECT_EQ(stats.queue.pushed_records + stats.queue.dropped_records +
                stats.queue.sampled_out_records,
            trace.records.size());
  EXPECT_EQ(stats.records, stats.queue.pushed_records);
  EXPECT_GT(stats.records, 0u);

  // And with sampling explicitly off, the legacy two-way ledger holds.
  Pipeline coarse(w.psl(), w.activity(), w.pdns(), config);
  dns::DayTraceSource replay(trace);
  options.sampled_admission = false;
  const auto coarse_stats = coarse.ingest_stream(
      replay, [&](dns::Day) -> const graph::NameSet& { return blacklist; },
      w.whitelist().all(), [&](PreparedDay&& day) { prepared = std::move(day); }, options);
  EXPECT_EQ(coarse_stats.queue.sampled_out_records, 0u);
  EXPECT_EQ(coarse_stats.queue.pushed_records + coarse_stats.queue.dropped_records,
            trace.records.size());
}

TEST_F(PipelineStreamTest, BackwardDaysThrowThroughTheQueue) {
  // The consumer-side day monotonicity check must propagate out of
  // ingest_stream() even though a producer thread is in flight.
  auto& w = world();
  dns::DayTrace disordered;
  disordered.day = 5;
  disordered.records.push_back({5, "m1", "a.example.com", {}});
  disordered.records.push_back({4, "m2", "b.example.com", {}});

  Pipeline pipeline(w.psl(), fast_config());
  dns::DayTraceSource source(disordered);
  EXPECT_THROW(pipeline.ingest_stream(
                   source, [&](dns::Day) -> const graph::NameSet& {
                     static const graph::NameSet empty;
                     return empty;
                   },
                   w.whitelist().all(), [](PreparedDay&&) {}),
               util::ParseError);
}

TEST_F(PipelineStreamTest, ProducerParseErrorsPropagateAfterDrain) {
  // A corrupt trace file fails inside the producer thread; the consumer
  // must see the ParseError, not a hang or a truncated "success".
  auto& w = world();
  const auto trace = w.generate_day(0, 5);
  const auto path = temp_path(".corrupt.bin");
  dns::write_trace_binary(trace, path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "NOTASEGMENT";  // garbage where the next segment header belongs
  }

  Pipeline pipeline(w.psl(), fast_config());
  dns::FileTraceSource source(path, dns::TraceFormat::kBinlog);
  const auto blacklist = w.blacklist().as_of(sim::BlacklistKind::kCommercial, 5);
  EXPECT_THROW(pipeline.ingest_stream(
                   source, [&](dns::Day) -> const graph::NameSet& { return blacklist; },
                   w.whitelist().all(), [](PreparedDay&&) {}),
               util::ParseError);
}

TEST_F(PipelineStreamTest, SourceFailureMidDayNeverHandsOutTheOpenDay) {
  // A capture cut off inside day 5 (a crashed writer, a truncated copy)
  // makes the producer throw while day 5 is still open. Day 4 ended at the
  // rollover and is handed out; day 5's records stop short, so it must not
  // reach on_day looking like a complete day.
  auto& w = world();
  const std::vector<dns::DayTrace> traces = {w.generate_day(0, 4), w.generate_day(0, 5)};
  const auto path = write_multiday_binlog(traces, ".cut.bin");
  const auto day4_only = write_multiday_binlog({traces[0]}, ".day4.bin");
  const auto day4_bytes = std::filesystem::file_size(day4_only);
  const auto total_bytes = std::filesystem::file_size(path);
  ASSERT_GT(total_bytes, day4_bytes);
  std::filesystem::resize_file(path, day4_bytes + (total_bytes - day4_bytes) / 2);

  const auto blacklist = w.blacklist().as_of(sim::BlacklistKind::kCommercial, 5);
  Pipeline pipeline(w.psl(), w.activity(), w.pdns(), fast_config());
  dns::FileTraceSource source(path);
  std::vector<dns::Day> handed_out;
  EXPECT_THROW(pipeline.ingest_stream(
                   source, [&](dns::Day) -> const graph::NameSet& { return blacklist; },
                   w.whitelist().all(),
                   [&](PreparedDay&& day) { handed_out.push_back(day.day); }),
               util::ParseError);
  EXPECT_EQ(handed_out, std::vector<dns::Day>{4});
  EXPECT_EQ(pipeline.streaming_stats().days_ingested, 1u);
}

}  // namespace
}  // namespace seg::core
