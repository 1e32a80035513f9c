// seg::obs v2 longitudinal surface: journal round-trip through the
// validator, drift gauge math (PSI/KS), alert trip/no-trip thresholds,
// and the live health sampler.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "util/obs/drift.h"
#include "util/obs/health.h"
#include "util/obs/journal.h"
#include "util/obs/metrics.h"
#include "util/require.h"

namespace seg::obs {
namespace {

JournalHistogram histogram_of(const std::vector<double>& bounds,
                              const std::vector<double>& observations) {
  JournalHistogram histogram = JournalHistogram::with_bounds(bounds);
  for (const double value : observations) {
    histogram.observe(value);
  }
  return histogram;
}

JournalEntry sample_entry(std::int64_t day) {
  JournalEntry entry;
  entry.day = day;
  entry.add_counter("records", 1000 + static_cast<std::uint64_t>(day));
  entry.add_counter("unknown_domains", 42);
  entry.add_gauge("calibration_tpr", 0.75);
  entry.add_gauge("calibration_threshold", 0.6);
  entry.add_histogram("scores",
                      histogram_of({0.25, 0.5, 0.75, 1.0}, {0.1, 0.3, 0.3, 0.8, 0.99}));
  entry.add_histogram("f1_infected_fraction", histogram_of({0.5, 1.0}, {0.0, 0.2, 0.9}));
  entry.alerts.push_back({"seg_drift_score_psi", 0.31, 0.2});
  entry.add_runtime("ingest_seconds", 0.125);
  return entry;
}

TEST(ObsJournal, HistogramObserveTracksBucketsAndSummary) {
  JournalHistogram histogram = histogram_of({1.0, 2.0}, {0.5, 1.5, 1.5, 5.0});
  ASSERT_EQ(histogram.buckets.size(), 3u);  // two bounds + the +Inf bucket
  EXPECT_EQ(histogram.buckets[0], 1u);
  EXPECT_EQ(histogram.buckets[1], 2u);
  EXPECT_EQ(histogram.buckets[2], 1u);
  EXPECT_EQ(histogram.count, 4u);
  EXPECT_DOUBLE_EQ(histogram.min, 0.5);
  EXPECT_DOUBLE_EQ(histogram.max, 5.0);
  EXPECT_DOUBLE_EQ(histogram.mean, (0.5 + 1.5 + 1.5 + 5.0) / 4.0);
}

TEST(ObsJournal, RoundTripsThroughWriterReaderAndValidator) {
  std::ostringstream out;
  JournalWriter writer(out);
  writer.append(sample_entry(3));
  writer.append(sample_entry(4));
  EXPECT_EQ(writer.entries_written(), 2u);
  const std::string text = out.str();

  EXPECT_EQ(validate_obs_journal(text), "");

  std::istringstream in(text);
  const auto entries = read_journal(in);
  ASSERT_EQ(entries.size(), 2u);
  const JournalEntry& entry = entries[0];
  EXPECT_EQ(entry.day, 3);
  ASSERT_NE(entry.find_counter("records"), nullptr);
  EXPECT_EQ(*entry.find_counter("records"), 1003u);
  ASSERT_NE(entry.find_gauge("calibration_tpr"), nullptr);
  EXPECT_DOUBLE_EQ(*entry.find_gauge("calibration_tpr"), 0.75);
  const JournalHistogram* scores = entry.find_histogram("scores");
  ASSERT_NE(scores, nullptr);
  EXPECT_EQ(scores->count, 5u);
  EXPECT_EQ(scores->buckets, sample_entry(3).find_histogram("scores")->buckets);
  EXPECT_DOUBLE_EQ(scores->mean, sample_entry(3).find_histogram("scores")->mean);
  ASSERT_EQ(entry.alerts.size(), 1u);
  EXPECT_EQ(entry.alerts[0].gauge, "seg_drift_score_psi");
  EXPECT_DOUBLE_EQ(entry.alerts[0].value, 0.31);
  ASSERT_EQ(entry.runtime.size(), 1u);
  EXPECT_DOUBLE_EQ(entry.runtime[0].second, 0.125);
}

TEST(ObsJournal, SerializationIsByteStableForEqualEntries) {
  std::ostringstream first;
  std::ostringstream second;
  write_journal_entry(first, sample_entry(7));
  write_journal_entry(second, sample_entry(7));
  EXPECT_EQ(first.str(), second.str());
}

TEST(ObsJournal, WriterRequiresStrictlyIncreasingDays) {
  std::ostringstream out;
  JournalWriter writer(out);
  writer.append(sample_entry(5));
  EXPECT_THROW(writer.append(sample_entry(5)), util::PreconditionError);
  EXPECT_THROW(writer.append(sample_entry(4)), util::PreconditionError);
}

TEST(ObsJournal, ValidatorRejectsBadHeaderAndMalformedLines) {
  EXPECT_NE(validate_obs_journal(""), "");
  EXPECT_NE(validate_obs_journal("segf1 runreport 1\n"), "");
  EXPECT_NE(validate_obs_journal("segf1 obsjournal 1\nnot json\n"), "");
  EXPECT_NE(validate_obs_journal("segf1 obsjournal 1\n{\"counters\":{}}\n"), "");

  // Non-increasing days.
  std::ostringstream out;
  out << "segf1 obsjournal 1\n";
  write_journal_entry(out, sample_entry(2));
  out << '\n';
  write_journal_entry(out, sample_entry(2));
  out << '\n';
  EXPECT_NE(validate_obs_journal(out.str()), "");
}

TEST(ObsJournal, ValidatorRejectsInconsistentHistograms) {
  // Bucket sum != count.
  std::string text =
      "segf1 obsjournal 1\n"
      "{\"day\":1,\"counters\":{},\"histograms\":{\"scores\":{\"bounds\":[0.5,1.0],"
      "\"buckets\":[1,2,0],\"count\":5,\"mean\":0.4,\"min\":0.1,\"max\":0.9}}}\n";
  EXPECT_NE(validate_obs_journal(text), "");
  // Bucket array length != bounds + 1.
  text =
      "segf1 obsjournal 1\n"
      "{\"day\":1,\"counters\":{},\"histograms\":{\"scores\":{\"bounds\":[0.5,1.0],"
      "\"buckets\":[1,2],\"count\":3,\"mean\":0.4,\"min\":0.1,\"max\":0.9}}}\n";
  EXPECT_NE(validate_obs_journal(text), "");
}

TEST(Drift, PsiIsZeroForIdenticalAndPositiveForShifted) {
  const std::vector<double> bounds = {0.25, 0.5, 0.75, 1.0};
  const JournalHistogram base =
      histogram_of(bounds, {0.1, 0.1, 0.3, 0.3, 0.6, 0.6, 0.9, 0.9});
  EXPECT_DOUBLE_EQ(psi(base, base), 0.0);

  const JournalHistogram shifted =
      histogram_of(bounds, {0.6, 0.6, 0.6, 0.9, 0.9, 0.9, 0.9, 0.9});
  const double drift = psi(base, shifted);
  EXPECT_GT(drift, 0.0);
  // PSI is symmetric in the sense of staying positive either way round.
  EXPECT_GT(psi(shifted, base), 0.0);
}

TEST(Drift, KsStatisticMatchesHandComputedValue) {
  const std::vector<double> bounds = {0.5, 1.0};
  // baseline: 4 in bucket0, 0 in bucket1 -> CDF 1.0, 1.0
  // current:  1 in bucket0, 3 in bucket1 -> CDF 0.25, 1.0
  const JournalHistogram base = histogram_of(bounds, {0.1, 0.2, 0.3, 0.4});
  const JournalHistogram current = histogram_of(bounds, {0.1, 0.6, 0.7, 0.8});
  EXPECT_DOUBLE_EQ(ks_statistic(base, current), 0.75);
  EXPECT_DOUBLE_EQ(ks_statistic(base, base), 0.0);

  const JournalHistogram empty = JournalHistogram::with_bounds(bounds);
  EXPECT_DOUBLE_EQ(ks_statistic(base, empty), 0.0);
}

TEST(Drift, MismatchedBoundsAreRejected) {
  const JournalHistogram a = histogram_of({0.5, 1.0}, {0.1});
  const JournalHistogram b = histogram_of({0.25, 1.0}, {0.1});
  EXPECT_THROW(psi(a, b), util::PreconditionError);
  EXPECT_THROW(ks_statistic(a, b), util::PreconditionError);
}

TEST(Drift, ComputeDriftEmitsGaugesGroupMeansAndCalibrationDelta) {
  JournalEntry baseline;
  baseline.day = 0;
  baseline.add_gauge("calibration_threshold", 0.5);
  baseline.add_histogram("scores", histogram_of({0.5, 1.0}, {0.1, 0.2, 0.9}));
  baseline.add_histogram("f1_infected_fraction", histogram_of({0.5, 1.0}, {0.1, 0.9}));
  baseline.add_histogram("f2_fqdn_active_days", histogram_of({2.0, 14.0}, {1.0, 7.0}));

  JournalEntry current;
  current.day = 1;
  current.add_gauge("calibration_threshold", 0.52);
  current.add_histogram("scores", histogram_of({0.5, 1.0}, {0.1, 0.2, 0.9}));
  current.add_histogram("f1_infected_fraction", histogram_of({0.5, 1.0}, {0.1, 0.9}));
  current.add_histogram("f2_fqdn_active_days", histogram_of({2.0, 14.0}, {1.0, 7.0}));

  const DriftResult result = compute_drift(baseline, current);
  ASSERT_NE(result.find_gauge("score_psi"), nullptr);
  ASSERT_NE(result.find_gauge("score_ks"), nullptr);
  ASSERT_NE(result.find_gauge("psi_f1_infected_fraction"), nullptr);
  ASSERT_NE(result.find_gauge("group_psi_f1"), nullptr);
  ASSERT_NE(result.find_gauge("group_psi_f2"), nullptr);
  ASSERT_NE(result.find_gauge("calibration_delta"), nullptr);
  EXPECT_NEAR(*result.find_gauge("calibration_delta"), 0.02, 1e-12);
  EXPECT_DOUBLE_EQ(*result.find_gauge("score_psi"), 0.0);
  EXPECT_TRUE(result.alerts.empty());
}

TEST(Drift, AlertsTripExactlyWhenThresholdsAreExceeded) {
  JournalEntry baseline;
  baseline.day = 0;
  baseline.add_histogram("scores", histogram_of({0.5, 1.0}, {0.1, 0.1, 0.1, 0.1}));
  JournalEntry current;
  current.day = 1;
  current.add_histogram("scores", histogram_of({0.5, 1.0}, {0.9, 0.9, 0.9, 0.9}));

  DriftThresholds loose;
  loose.score_psi = 1e9;
  loose.score_ks = 1e9;
  const DriftResult no_trip = compute_drift(baseline, current, loose);
  EXPECT_TRUE(no_trip.alerts.empty());

  DriftThresholds tight;
  tight.score_psi = 0.01;
  tight.score_ks = 0.01;
  const DriftResult tripped = compute_drift(baseline, current, tight);
  ASSERT_EQ(tripped.alerts.size(), 2u);
  EXPECT_EQ(tripped.alerts[0].gauge, "seg_drift_score_psi");
  EXPECT_EQ(tripped.alerts[0].threshold, 0.01);
  EXPECT_GT(tripped.alerts[0].value, 0.01);
  EXPECT_EQ(tripped.alerts[1].gauge, "seg_drift_score_ks");
}

TEST(Drift, ExportMirrorsGaugesAndAlertCounterIntoRegistry) {
  Registry::instance().reset();
  DriftResult result;
  result.gauges.emplace_back("score_psi", 0.42);
  result.alerts.push_back({"seg_drift_score_psi", 0.42, 0.2});
  export_drift(result);
  EXPECT_DOUBLE_EQ(Registry::instance().gauge("seg_drift_score_psi").value(), 0.42);
  EXPECT_EQ(Registry::instance().counter("seg_drift_alerts_total").value(), 1u);
  Registry::instance().reset();
}

TEST(Health, SampleOncePublishesTheGaugeCatalog) {
  Registry::instance().reset();
  Registry::instance().counter("seg_ingest_queue_pushed_records_total").add(500);
  Registry::instance().gauge("seg_ingest_queue_depth").set(3.0);
  Registry::instance().gauge("seg_ingest_queue_drop_rate").set(0.25);
  Registry::instance().gauge("seg_ingest_current_day").set(7.0);
  Registry::instance().gauge("seg_ingest_day_watermark").set(5.0);

  HealthSampler sampler;
  sampler.sample_once();
  Registry::instance().counter("seg_ingest_queue_pushed_records_total").add(500);
  sampler.sample_once();

  Registry& registry = Registry::instance();
  EXPECT_GE(registry.gauge("seg_health_records_per_sec_ewma").value(), 0.0);
  EXPECT_DOUBLE_EQ(registry.gauge("seg_health_queue_depth").value(), 3.0);
  EXPECT_DOUBLE_EQ(registry.gauge("seg_health_queue_drop_rate").value(), 0.25);
  EXPECT_DOUBLE_EQ(registry.gauge("seg_health_day_lag").value(), 2.0);
  EXPECT_GT(registry.gauge("seg_health_rss_peak_kb").value(), 0.0);
  EXPECT_GT(registry.gauge("seg_health_uptime_seconds").value(), 0.0);
  EXPECT_EQ(registry.counter("seg_health_samples_total").value(), 2u);
  Registry::instance().reset();
}

TEST(Health, BackgroundThreadStartsSamplesAndStopsCleanly) {
  Registry::instance().reset();
  HealthOptions options;
  options.interval = std::chrono::milliseconds(1);
  HealthSampler sampler(options);
  EXPECT_FALSE(sampler.running());
  sampler.start();
  EXPECT_TRUE(sampler.running());
  // The loop samples once immediately, so stopping right away still
  // leaves at least one completed sample.
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  EXPECT_GE(Registry::instance().counter("seg_health_samples_total").value(), 1u);
  sampler.stop();  // idempotent
  EXPECT_THROW(
      [] {
        HealthSampler running;
        running.start();
        running.start();  // second start must be refused
      }(),
      util::PreconditionError);
  Registry::instance().reset();
}

}  // namespace
}  // namespace seg::obs
