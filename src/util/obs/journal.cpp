#include "util/obs/journal.h"

#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>

#include "util/obs/json_lite.h"
#include "util/require.h"
#include "util/serialize.h"

namespace seg::obs {

namespace {

// Same escaping/formatting idiom as the run-report exporter (export.cpp):
// precision-17 doubles make serialization reproducible for identical bits.
void write_escaped(std::ostream& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out << "\\u00" << kHex[(c >> 4) & 0xf] << kHex[c & 0xf];
        } else {
          out << c;
        }
    }
  }
}

std::string json_double(double value) {
  if (!std::isfinite(value)) {
    return "null";  // journal values are expected finite; validator rejects null
  }
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

void write_histogram(std::ostream& out, const JournalHistogram& histogram) {
  out << "{\"bounds\":[";
  for (std::size_t i = 0; i < histogram.bounds.size(); ++i) {
    out << (i ? "," : "") << json_double(histogram.bounds[i]);
  }
  out << "],\"buckets\":[";
  for (std::size_t i = 0; i < histogram.buckets.size(); ++i) {
    out << (i ? "," : "") << histogram.buckets[i];
  }
  out << "],\"count\":" << histogram.count << ",\"mean\":" << json_double(histogram.mean)
      << ",\"min\":" << json_double(histogram.min)
      << ",\"max\":" << json_double(histogram.max) << "}";
}

template <typename Value, typename WriteValue>
void write_section(std::ostream& out, std::string_view key,
                   const std::vector<std::pair<std::string, Value>>& items,
                   const WriteValue& write_value) {
  out << ",\"" << key << "\":{";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out << (i ? "," : "") << '"';
    write_escaped(out, items[i].first);
    out << "\":";
    write_value(out, items[i].second);
  }
  out << '}';
}

}  // namespace

JournalHistogram JournalHistogram::with_bounds(std::vector<double> bounds) {
  JournalHistogram histogram;
  histogram.buckets.assign(bounds.size() + 1, 0);
  histogram.bounds = std::move(bounds);
  return histogram;
}

void JournalHistogram::observe(double value) {
  std::size_t bucket = bounds.size();  // +Inf fallback
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (value <= bounds[i]) {
      bucket = i;
      break;
    }
  }
  util::require(bucket < buckets.size(), "JournalHistogram::observe: bucket out of range");
  ++buckets[bucket];
  if (count == 0) {
    min = value;
    max = value;
  } else {
    min = value < min ? value : min;
    max = value > max ? value : max;
  }
  ++count;
  // Incremental mean keeps the serial accumulation bit-stable for a given
  // observation order.
  mean += (value - mean) / static_cast<double>(count);
}

void JournalEntry::add_counter(std::string name, std::uint64_t value) {
  counters.emplace_back(std::move(name), value);
}

void JournalEntry::add_gauge(std::string name, double value) {
  gauges.emplace_back(std::move(name), value);
}

void JournalEntry::add_histogram(std::string name, JournalHistogram histogram) {
  histograms.emplace_back(std::move(name), std::move(histogram));
}

const std::uint64_t* JournalEntry::find_counter(std::string_view name) const {
  for (const auto& [key, value] : counters) {
    if (key == name) {
      return &value;
    }
  }
  return nullptr;
}

const double* JournalEntry::find_gauge(std::string_view name) const {
  for (const auto& [key, value] : gauges) {
    if (key == name) {
      return &value;
    }
  }
  return nullptr;
}

const JournalHistogram* JournalEntry::find_histogram(std::string_view name) const {
  for (const auto& [key, value] : histograms) {
    if (key == name) {
      return &value;
    }
  }
  return nullptr;
}

void write_journal_entry(std::ostream& out, const JournalEntry& entry) {
  out << "{\"day\":" << entry.day;
  write_section(out, "counters", entry.counters,
                [](std::ostream& o, std::uint64_t v) { o << v; });
  if (!entry.gauges.empty()) {
    write_section(out, "gauges", entry.gauges,
                  [](std::ostream& o, double v) { o << json_double(v); });
  }
  if (!entry.histograms.empty()) {
    write_section(out, "histograms", entry.histograms,
                  [](std::ostream& o, const JournalHistogram& h) { write_histogram(o, h); });
  }
  if (!entry.alerts.empty()) {
    out << ",\"alerts\":[";
    for (std::size_t i = 0; i < entry.alerts.size(); ++i) {
      const JournalAlert& alert = entry.alerts[i];
      out << (i ? "," : "") << "{\"gauge\":\"";
      write_escaped(out, alert.gauge);
      out << "\",\"value\":" << json_double(alert.value)
          << ",\"threshold\":" << json_double(alert.threshold) << '}';
    }
    out << ']';
  }
  out << '}';
}

JournalWriter::JournalWriter(std::ostream& out) : out_(&out) {
  util::write_format_header(*out_, kObsJournalMagic, kObsJournalVersion);
}

void JournalWriter::append(const JournalEntry& entry) {
  util::require(entries_ == 0 || entry.day > last_day_,
                "JournalWriter::append: days must be strictly increasing");
  write_journal_entry(*out_, entry);
  *out_ << '\n';
  out_->flush();  // append-only artifact: each day survives a crash
  last_day_ = entry.day;
  ++entries_;
}

namespace {

double number_or_throw(const json::Value& value, const std::string& context) {
  util::require_data(value.is_number(), "obsjournal: " + context + " is not a number");
  return value.as_number();
}

// JSON numbers arrive as doubles. Converting one that is not finite,
// integral and inside Int's range to Int is undefined behaviour, so each
// integer field is checked before the cast. The bounds are exact doubles:
// 0 or -2^63 below, 2^64 or 2^63 (exclusive) above; NaN and infinities fail
// the comparisons.
template <typename Int>
Int integer_or_throw(const json::Value& value, const std::string& context) {
  const double number = number_or_throw(value, context);
  const double low = static_cast<double>(std::numeric_limits<Int>::min());
  const double high = std::ldexp(1.0, std::numeric_limits<Int>::digits);
  util::require_data(number >= low && number < high && number == std::trunc(number),
                     "obsjournal: " + context + " is not an integer in range");
  return static_cast<Int>(number);
}

JournalHistogram parse_histogram(const json::Value& value, const std::string& context) {
  util::require_data(value.is_object(), "obsjournal: " + context + " is not an object");
  JournalHistogram histogram;
  const json::Value* bounds = value.find("bounds");
  const json::Value* buckets = value.find("buckets");
  util::require_data(bounds && bounds->is_array() && buckets && buckets->is_array(),
                     "obsjournal: " + context + " missing bounds/buckets arrays");
  for (const json::Value& bound : bounds->as_array()) {
    histogram.bounds.push_back(number_or_throw(bound, context + ".bounds"));
  }
  for (const json::Value& bucket : buckets->as_array()) {
    histogram.buckets.push_back(integer_or_throw<std::uint64_t>(bucket, context + ".buckets"));
  }
  const json::Value* count = value.find("count");
  const json::Value* mean = value.find("mean");
  const json::Value* min = value.find("min");
  const json::Value* max = value.find("max");
  util::require_data(count && mean && min && max,
                     "obsjournal: " + context + " missing count/mean/min/max");
  histogram.count = integer_or_throw<std::uint64_t>(*count, context + ".count");
  histogram.mean = number_or_throw(*mean, context + ".mean");
  histogram.min = number_or_throw(*min, context + ".min");
  histogram.max = number_or_throw(*max, context + ".max");
  return histogram;
}

JournalEntry parse_entry(const json::Value& root, const std::string& context) {
  util::require_data(root.is_object(), "obsjournal: " + context + " is not a JSON object");
  JournalEntry entry;
  const json::Value* day = root.find("day");
  util::require_data(day != nullptr, "obsjournal: " + context + " missing \"day\"");
  entry.day = integer_or_throw<std::int64_t>(*day, context + ".day");
  if (const json::Value* counters = root.find("counters")) {
    util::require_data(counters->is_object(), "obsjournal: " + context + ".counters");
    for (const auto& [key, value] : counters->as_object()) {
      entry.add_counter(key,
                        integer_or_throw<std::uint64_t>(value, context + ".counters." + key));
    }
  }
  if (const json::Value* gauges = root.find("gauges")) {
    util::require_data(gauges->is_object(), "obsjournal: " + context + ".gauges");
    for (const auto& [key, value] : gauges->as_object()) {
      entry.add_gauge(key, number_or_throw(value, context + ".gauges." + key));
    }
  }
  if (const json::Value* histograms = root.find("histograms")) {
    util::require_data(histograms->is_object(), "obsjournal: " + context + ".histograms");
    for (const auto& [key, value] : histograms->as_object()) {
      entry.add_histogram(key, parse_histogram(value, context + ".histograms." + key));
    }
  }
  if (const json::Value* alerts = root.find("alerts")) {
    util::require_data(alerts->is_array(), "obsjournal: " + context + ".alerts");
    for (const json::Value& item : alerts->as_array()) {
      util::require_data(item.is_object(), "obsjournal: " + context + ".alerts item");
      const json::Value* gauge = item.find("gauge");
      const json::Value* observed = item.find("value");
      const json::Value* threshold = item.find("threshold");
      util::require_data(gauge && gauge->is_string() && observed && threshold,
                         "obsjournal: " + context + ".alerts item shape");
      entry.alerts.push_back(
          {gauge->as_string(), number_or_throw(*observed, context + ".alerts.value"),
           number_or_throw(*threshold, context + ".alerts.threshold")});
    }
  }
  return entry;
}

}  // namespace

JournalRead read_journal(std::istream& in) {
  std::string header;
  util::require_data(static_cast<bool>(std::getline(in, header)),
                     "obsjournal: empty stream (missing header)");
  std::ostringstream expected;
  util::write_format_header(expected, kObsJournalMagic, kObsJournalVersion);
  std::string expected_line = std::move(expected).str();
  expected_line.pop_back();  // getline strips the newline
  util::require_data(header == expected_line,
                     "obsjournal: bad header line '" + header + "'");
  JournalRead journal;
  std::string line;
  std::size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    const std::string context = "line " + std::to_string(line_number);
    std::string error;
    const json::Value root = json::parse(line, &error);
    // getline sets eof only when the line had no newline after it, so this
    // is the last line, cut off before its append finished.
    if (!error.empty() && in.eof()) {
      journal.torn_tail = "obsjournal: " + context + " is torn (no newline after it: " +
                          error + "); the entries before it are complete";
      break;
    }
    util::require_data(error.empty(), "obsjournal: " + context + ": " + error);
    journal.entries.push_back(parse_entry(root, context));
  }
  return journal;
}

std::string validate_obs_journal(std::string_view text) {
  std::istringstream in{std::string(text)};
  JournalRead journal;
  try {
    journal = read_journal(in);
  } catch (const util::ParseError& error) {
    return error.what();
  }
  const std::vector<JournalEntry>& entries = journal.entries;
  std::int64_t last_day = std::numeric_limits<std::int64_t>::min();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const JournalEntry& entry = entries[i];
    const std::string context = "entry " + std::to_string(i) + " (day " +
                                std::to_string(entry.day) + ")";
    if (entry.day <= last_day && i > 0) {
      return "obsjournal: " + context + ": days are not strictly increasing";
    }
    last_day = entry.day;
    for (const auto& [name, histogram] : entry.histograms) {
      if (histogram.buckets.size() != histogram.bounds.size() + 1) {
        return "obsjournal: " + context + ": histogram '" + name +
               "' has " + std::to_string(histogram.buckets.size()) + " buckets for " +
               std::to_string(histogram.bounds.size()) + " bounds";
      }
      std::uint64_t total = 0;
      for (const std::uint64_t bucket : histogram.buckets) {
        total += bucket;
      }
      if (total != histogram.count) {
        return "obsjournal: " + context + ": histogram '" + name +
               "' bucket sum " + std::to_string(total) + " != count " +
               std::to_string(histogram.count);
      }
      for (std::size_t b = 1; b < histogram.bounds.size(); ++b) {
        if (!(histogram.bounds[b] > histogram.bounds[b - 1])) {
          return "obsjournal: " + context + ": histogram '" + name +
                 "' bounds are not strictly ascending";
        }
      }
      if (histogram.count > 0 && !(histogram.min <= histogram.max)) {
        return "obsjournal: " + context + ": histogram '" + name + "' has min > max";
      }
    }
    for (const JournalAlert& alert : entry.alerts) {
      if (alert.gauge.empty()) {
        return "obsjournal: " + context + ": alert with empty gauge name";
      }
      if (!std::isfinite(alert.value) || !std::isfinite(alert.threshold)) {
        return "obsjournal: " + context + ": alert '" + alert.gauge +
               "' has non-finite value/threshold";
      }
    }
    for (const auto& [name, value] : entry.gauges) {
      if (!std::isfinite(value)) {
        return "obsjournal: " + context + ": gauge '" + name + "' is non-finite";
      }
    }
  }
  return journal.torn_tail;
}

}  // namespace seg::obs
