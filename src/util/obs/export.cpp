#include "util/obs/export.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <ostream>

#include "util/obs/metrics.h"
#include "util/obs/process.h"
#include "util/parallel.h"

namespace seg::obs {

namespace {

struct SpanAggregate {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t min_ns = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ns = 0;
};

}  // namespace

void write_run_report(std::ostream& out, std::string_view command,
                      const std::vector<SpanRecord>& records) {
  const ProcessSample process = sample_process();
  auto& registry = Registry::instance();

  // Aggregate spans by name; std::map keeps the output order deterministic.
  std::map<std::string, SpanAggregate> spans;
  for (const auto& record : records) {
    SpanAggregate& agg = spans[record.name];
    agg.count += 1;
    agg.total_ns += record.dur_ns;
    agg.min_ns = std::min(agg.min_ns, record.dur_ns);
    agg.max_ns = std::max(agg.max_ns, record.dur_ns);
  }

  out << "{\n";
  out << "  \"version\": 1,\n";
  out << "  \"command\": \"";
  json::write_escaped(out, command);
  out << "\",\n";
  out << "  \"threads\": " << util::parallelism() << ",\n";
  out << "  \"process\": {\"rss_peak_kb\": " << process.rss_peak_kb
      << ", \"minor_faults\": " << process.minor_faults
      << ", \"major_faults\": " << process.major_faults
      << ", \"hardware_concurrency\": " << process.hardware_concurrency << "},\n";

  out << "  \"metrics\": {\n";
  out << "    \"counters\": {";
  bool first = true;
  for (const Counter* counter : registry.counters()) {
    out << (first ? "" : ",") << "\n      \"";
    json::write_escaped(out, counter->name());
    out << "\": " << counter->value();
    first = false;
  }
  out << (first ? "" : "\n    ") << "},\n";

  out << "    \"gauges\": {";
  first = true;
  for (const Gauge* gauge : registry.gauges()) {
    out << (first ? "" : ",") << "\n      \"";
    json::write_escaped(out, gauge->name());
    out << "\": " << json::format_double(gauge->value());
    first = false;
  }
  out << (first ? "" : "\n    ") << "},\n";

  out << "    \"histograms\": {";
  first = true;
  for (const HistogramMetric* histogram : registry.histograms()) {
    out << (first ? "" : ",") << "\n      \"";
    json::write_escaped(out, histogram->name());
    out << "\": {\"bounds\": [";
    bool first_bound = true;
    for (const double bound : histogram->bounds()) {
      out << (first_bound ? "" : ", ") << json::format_double(bound);
      first_bound = false;
    }
    out << "], \"buckets\": [";
    bool first_bucket = true;
    for (const std::uint64_t bucket : histogram->bucket_counts()) {
      out << (first_bucket ? "" : ", ") << bucket;
      first_bucket = false;
    }
    out << "], \"count\": " << histogram->count()
        << ", \"sum\": " << json::format_double(histogram->sum()) << "}";
    first = false;
  }
  out << (first ? "" : "\n    ") << "}\n";
  out << "  },\n";

  out << "  \"spans\": {";
  first = true;
  for (const auto& [name, agg] : spans) {
    out << (first ? "" : ",") << "\n    \"";
    json::write_escaped(out, name);
    out << "\": {\"count\": " << agg.count
        << ", \"total_seconds\": " << json::format_double(static_cast<double>(agg.total_ns) * 1e-9)
        << ", \"min_seconds\": " << json::format_double(static_cast<double>(agg.min_ns) * 1e-9)
        << ", \"max_seconds\": " << json::format_double(static_cast<double>(agg.max_ns) * 1e-9)
        << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n";
  out << "}\n";
}

void write_run_report(std::ostream& out, std::string_view command) {
  write_run_report(out, command, Tracer::instance().snapshot());
}

std::string validate_chrome_trace(const json::Value& doc) {
  if (!doc.is_object()) {
    return "trace document is not a JSON object";
  }
  const json::Value* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return "missing traceEvents array";
  }
  std::vector<SpanRecord> records;
  records.reserve(events->as_array().size());
  for (const json::Value& event : events->as_array()) {
    if (!event.is_object()) {
      return "traceEvents entry is not an object";
    }
    const json::Value* name = event.find("name");
    const json::Value* ph = event.find("ph");
    const json::Value* ts = event.find("ts");
    const json::Value* dur = event.find("dur");
    const json::Value* tid = event.find("tid");
    if (name == nullptr || !name->is_string()) {
      return "trace event missing string name";
    }
    if (ph == nullptr || !ph->is_string() || ph->as_string() != "X") {
      return "trace event '" + name->as_string() + "' is not a complete (ph=X) event";
    }
    if (ts == nullptr || !ts->is_number() || dur == nullptr || !dur->is_number() ||
        tid == nullptr || !tid->is_number()) {
      return "trace event '" + name->as_string() + "' missing numeric ts/dur/tid";
    }
    if (ts->as_number() < 0 || dur->as_number() < 0) {
      return "trace event '" + name->as_string() + "' has negative ts or dur";
    }
    SpanRecord record;
    record.name = name->as_string();
    record.tid = static_cast<std::uint32_t>(tid->as_number());
    record.start_ns = static_cast<std::int64_t>(ts->as_number()) * 1000;
    record.dur_ns = static_cast<std::int64_t>(dur->as_number()) * 1000;
    records.push_back(std::move(record));
  }
  return validate_spans(records);
}

std::string validate_run_report(const json::Value& doc) {
  if (!doc.is_object()) {
    return "run report is not a JSON object";
  }
  const json::Value* version = doc.find("version");
  if (version == nullptr || !version->is_number() || version->as_number() != 1) {
    return "missing or unsupported version";
  }
  const json::Value* command = doc.find("command");
  if (command == nullptr || !command->is_string()) {
    return "missing command string";
  }
  const json::Value* process = doc.find("process");
  if (process == nullptr || !process->is_object() ||
      process->find("rss_peak_kb") == nullptr) {
    return "missing process sample";
  }
  const json::Value* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_object() || metrics->find("counters") == nullptr ||
      metrics->find("gauges") == nullptr || metrics->find("histograms") == nullptr) {
    return "missing metrics section";
  }
  const json::Value* spans = doc.find("spans");
  if (spans == nullptr || !spans->is_object()) {
    return "missing spans section";
  }
  for (const auto& [name, agg] : spans->as_object()) {
    const json::Value* count = agg.find("count");
    const json::Value* total = agg.find("total_seconds");
    if (count == nullptr || !count->is_number() || total == nullptr || !total->is_number()) {
      return "span aggregate '" + name + "' missing count/total_seconds";
    }
    if (count->as_number() < 1 || total->as_number() < 0) {
      return "span aggregate '" + name + "' has an invalid count or total";
    }
  }
  return {};
}

}  // namespace seg::obs
