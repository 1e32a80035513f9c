// segugio — command-line interface to the detector.
//
// Subcommands:
//
//   segugio simgen --out DIR [--days N] [--isp K] [--seed S] [--scale small|bench]
//                  [--format sim|binlog|dnstap|pcap]
//       Generates N days of synthetic ISP traffic plus the supporting
//       files: per-day query logs (in the requested trace format) and
//       blacklist snapshots, the e2LD whitelist, the domain-activity
//       index, and the passive-DNS store.
//
//   segugio train --input FILE [--format sim|binlog|dnstap|pcap]
//                 --blacklist FILE --whitelist FILE
//                 --activity FILE --pdns FILE --model OUT
//                 [--trees N] [--no-prober-filter]
//       Builds + labels + prunes the behavior graph for one day of traffic
//       and trains the classifier; writes the portable model file.
//
//   segugio classify --input FILE [--format ...] --model FILE
//                    --blacklist FILE --whitelist FILE --activity FILE
//                    --pdns FILE [--threshold X] [--top N] [--machines]
//       Streams the input through the pipeline and scores every unknown
//       domain of the final day, printing detections (with the querying
//       machines when --machines is given). Multi-day inputs warm the
//       session day by day before the final day is scored.
//
//   segugio report ...same inputs as classify... [--threshold X] [--top N]
//       Prints the remediation worklist: machines implicated by known or
//       newly detected malware-control domains (Section VI).
//
// The trace format is sniffed from the file's magic bytes unless --format
// forces it (see docs/ingestion.md).
//
//   segugio inspect --model FILE
//       Prints the model card: classifier, windows, pruning, importances.
//
//   segugio validate-obs [--trace FILE] [--run-report FILE] [--metrics FILE]
//                        [--journal FILE]
//       Validates obs exporter output: the JSONs parse, trace spans are
//       well-nested, the run report carries every required section, the
//       obs journal passes its byte-level validator. Used by the
//       ci_matrix `obs` leg.
//
//   segugio status --journal FILE [--last N]
//       Renders a per-day obs journal as a human-readable health table:
//       records, unknown domains, score mean, drift gauges (PSI/KS),
//       calibrated threshold, and tripped alerts per day.
//
// Observability (train/classify/report): --trace-out FILE writes a Chrome
// trace_event JSON of the run, --metrics-out FILE the Prometheus text
// exposition, --run-report FILE the structured RunReport JSON (see
// docs/observability.md). Tracing is enabled automatically when --trace-out
// or --run-report is given; scores are bit-identical either way.
// classify/report additionally take --journal FILE (write one `segf1
// obsjournal 1` entry per streamed day, with each day classified as it
// completes so score/drift gauges land in its entry) and
// --health-interval MS (run the live health sampler during the session;
// its seg_health_* gauges land in --metrics-out).
//
// All file formats are the plain-text formats of the library (see
// dns/query_log.h, dns/activity_index.h, dns/pdns.h, core/segugio.h).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "core/diagnostics.h"
#include "core/infection_report.h"
#include "core/pipeline.h"
#include "core/segugio.h"
#include "dns/trace_source.h"
#include "dns/wire/dnstap.h"
#include "dns/wire/pcap.h"
#include "graph/labeling.h"
#include "sim/world.h"
#include "util/args.h"
#include "util/obs/obs.h"
#include "util/require.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace seg;

graph::NameSet load_name_set(const std::string& path) {
  std::ifstream in(path);
  util::require_data(in.is_open(), "cannot open '" + path + "'");
  graph::NameSet set;
  std::string line;
  while (std::getline(in, line)) {
    const auto trimmed = util::trim(line);
    if (!trimmed.empty() && trimmed.front() != '#') {
      set.insert(trimmed);
    }
  }
  return set;
}

void save_name_set(const graph::NameSet& set, const std::string& path) {
  std::ofstream out(path);
  util::require_data(out.is_open(), "cannot create '" + path + "'");
  for (const auto& name : set) {
    out << name << '\n';
  }
}

dns::DomainActivityIndex load_activity(const std::string& path) {
  std::ifstream in(path);
  util::require_data(in.is_open(), "cannot open '" + path + "'");
  return dns::DomainActivityIndex::load(in);
}

// Resolves the input trace path for train/classify/report.
std::string input_path(const util::Args& args) {
  util::require_data(args.has("input"),
                     "pass --input FILE (optionally --format sim|binlog|dnstap|pcap)");
  return args.get("input");
}

dns::TraceFormat input_format(const util::Args& args, const std::string& path) {
  return args.has("format") ? dns::parse_format(args.get("format"))
                            : dns::detect_format(path);
}

// Reads a whole (single-day) input into memory — the one-shot train path.
dns::DayTrace load_input(const util::Args& args) {
  const auto path = input_path(args);
  dns::FileTraceSource source(path, input_format(args, path));
  dns::DayTrace trace;
  std::size_t days = 0;
  dns::collect_days(source, [&](dns::DayTrace&& day) {
    trace = std::move(day);
    ++days;
  });
  util::require_data(days <= 1, "'" + path + "' spans " + std::to_string(days) +
                                    " days; train expects a single-day trace");
  return trace;
}

dns::PassiveDnsDb load_pdns(const std::string& path) {
  std::ifstream in(path);
  util::require_data(in.is_open(), "cannot open '" + path + "'");
  return dns::PassiveDnsDb::load(in);
}

int cmd_simgen(const util::Args& args) {
  const auto out_dir = args.get("out");
  const auto days = args.get_int_or("days", 2);
  const auto isp = static_cast<std::size_t>(args.get_int_or("isp", 0));
  const auto scale = args.get_or("scale", "small");

  auto scenario = scale == "bench" ? sim::ScenarioConfig::bench() : sim::ScenarioConfig::small();
  scenario.seed = static_cast<std::uint64_t>(args.get_int_or("seed", scenario.seed));
  sim::World world{scenario};
  util::require_data(isp < world.isp_count(), "simgen: --isp out of range");

  const auto format =
      args.has("format") ? dns::parse_format(args.get("format")) : dns::TraceFormat::kSim;
  const char* extension = ".tsv";
  switch (format) {
    case dns::TraceFormat::kSim:
      break;
    case dns::TraceFormat::kBinlog:
      extension = ".bin";
      break;
    case dns::TraceFormat::kDnstap:
      extension = ".dnstap";
      break;
    case dns::TraceFormat::kPcap:
      extension = ".pcap";
      break;
  }
  for (dns::Day day = 0; day < days; ++day) {
    const auto trace = world.generate_day(isp, day);
    const auto trace_path = out_dir + "/day" + std::to_string(day) + extension;
    switch (format) {
      case dns::TraceFormat::kSim:
        dns::write_trace(trace, trace_path);
        break;
      case dns::TraceFormat::kBinlog:
        dns::write_trace_binary(trace, trace_path);
        break;
      case dns::TraceFormat::kDnstap:
        dns::wire::write_dnstap_trace(trace, trace_path);
        break;
      case dns::TraceFormat::kPcap:
        dns::wire::write_pcap_trace(trace, trace_path);
        break;
    }
    save_name_set(world.blacklist().as_of(sim::BlacklistKind::kCommercial, day),
                  out_dir + "/blacklist-day" + std::to_string(day) + ".txt");
    std::printf("wrote %s (%zu records)\n", trace_path.c_str(), trace.records.size());
  }
  save_name_set(world.whitelist().all(), out_dir + "/whitelist.txt");
  {
    std::ofstream out(out_dir + "/activity.txt");
    util::require_data(out.is_open(), "cannot create activity file");
    world.activity().save(out);
  }
  {
    std::ofstream out(out_dir + "/pdns.txt");
    util::require_data(out.is_open(), "cannot create pdns file");
    world.pdns().save(out);
  }
  std::printf("wrote %s/{whitelist.txt,activity.txt,pdns.txt}\n", out_dir.c_str());
  return 0;
}

int cmd_train(const util::Args& args) {
  const auto trace = load_input(args);
  const auto blacklist = load_name_set(args.get("blacklist"));
  const auto whitelist = load_name_set(args.get("whitelist"));
  const auto activity = load_activity(args.get("activity"));
  const auto pdns = load_pdns(args.get("pdns"));
  const auto psl = dns::PublicSuffixList::with_default_rules();

  core::SegugioConfig config;
  config.forest.num_trees = static_cast<std::size_t>(args.get_int_or("trees", 100));
  if (!args.flag("no-prober-filter")) {
    config.prober_filter = graph::ProberFilterConfig{};
  }

  obs::Span train_span("cli/train");
  const auto prep = core::Segugio::prepare_graph(trace, psl, blacklist, whitelist,
                                                 config.prepare_options());
  const auto& graph = prep.graph;
  core::Segugio segugio(config);
  segugio.train(graph, activity, pdns);

  const auto model_path = args.get("model");
  std::ofstream out(model_path);
  util::require_data(out.is_open(), "cannot create '" + model_path + "'");
  segugio.save(out);
  std::printf("trained on %zu records: %zu machines, %zu domains (%zu malware, %zu benign)\n",
              trace.records.size(), graph.machine_count(), graph.domain_count(),
              graph.count_domains_with(graph::Label::kMalware),
              graph.count_domains_with(graph::Label::kBenign));
  std::printf("model written to %s (%.2fs)\n", model_path.c_str(), train_span.close());
  return 0;
}

// Shared by classify/report: load everything and score the day through a
// streaming Pipeline session seeded with the saved model.
struct DayRun {
  graph::PreparedGraph graph;
  core::DetectionReport report;
};

DayRun run_day(const util::Args& args) {
  const auto path = input_path(args);
  const auto blacklist = load_name_set(args.get("blacklist"));
  const auto whitelist = load_name_set(args.get("whitelist"));
  const auto activity = load_activity(args.get("activity"));
  const auto pdns = load_pdns(args.get("pdns"));
  const auto psl = dns::PublicSuffixList::with_default_rules();
  std::ifstream model_in(args.get("model"));
  util::require_data(model_in.is_open(), "cannot open model file");
  auto segugio = core::Segugio::load(model_in);

  core::Pipeline pipeline(psl, activity, pdns, segugio.config());
  pipeline.detector() = std::move(segugio);

  // Optional longitudinal obs: a per-day journal and/or the live health
  // sampler. Neither can perturb the scores (obs contract).
  std::ofstream journal_out;
  const bool journaling = args.has("journal");
  if (journaling) {
    const auto journal_path = args.get("journal");
    journal_out.open(journal_path);
    util::require_data(journal_out.is_open(), "cannot create '" + journal_path + "'");
    pipeline.set_journal(&journal_out);
  }
  std::optional<obs::HealthSampler> health;
  if (const int health_ms = args.get_int_or("health-interval", 0); health_ms > 0) {
    obs::HealthOptions health_options;
    health_options.interval = std::chrono::milliseconds(health_ms);
    health.emplace(health_options);
    health->start();
  }

  dns::FileTraceSource source(path, input_format(args, path));
  core::PreparedDay last;
  core::DetectionReport journaled_report;
  std::size_t days = 0;
  pipeline.ingest_stream(
      source, [&blacklist](dns::Day) -> const graph::NameSet& { return blacklist; },
      whitelist,
      [&](core::PreparedDay&& day) {
        if (journaling) {
          // Classify every streamed day while its journal entry is still
          // pending, so each day's entry carries score/drift gauges; the
          // last day's report doubles as the command output (classify()
          // is pure per day, so the scores match the non-journal path).
          journaled_report = pipeline.classify(day);
        }
        last = std::move(day);
        ++days;
      });
  util::require_data(days > 0, "'" + path + "' holds no records to classify");
  if (health) {
    health->sample_once();  // final snapshot for --metrics-out
    health->stop();
  }
  auto report = journaling ? std::move(journaled_report) : pipeline.classify(last);
  pipeline.flush_journal();
  return {std::move(last.graph), std::move(report)};
}

int cmd_classify(const util::Args& args) {
  const double threshold = args.get_double_or("threshold", 0.5);
  const auto top = static_cast<std::size_t>(args.get_int_or("top", 25));
  const bool show_machines = args.flag("machines");

  const auto run = run_day(args);
  // The report carries its own machine attribution; no graph needed here.
  const auto detections = run.report.detections_at(threshold);

  std::printf("# %zu unknown domains scored; %zu at or above threshold %.2f\n",
              run.report.scores.size(), detections.size(), threshold);
  std::printf("# score\tdomain\tmachines%s\n", show_machines ? "\tquerying_machines" : "");
  std::size_t shown = 0;
  for (const auto& detection : detections) {
    if (shown++ >= top) {
      break;
    }
    std::printf("%.4f\t%s\t%zu", detection.domain.score, detection.domain.name.c_str(),
                detection.machines.size());
    if (show_machines) {
      std::printf("\t");
      for (std::size_t i = 0; i < detection.machines.size(); ++i) {
        std::printf("%s%s", i == 0 ? "" : ",", detection.machines[i].c_str());
      }
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_report(const util::Args& args) {
  const double threshold = args.get_double_or("threshold", 0.5);
  const auto top = static_cast<std::size_t>(args.get_int_or("top", 50));
  const auto run = run_day(args);
  const auto report = core::enumerate_infections(run.graph, run.report, threshold);
  std::printf("# remediation worklist: %zu machines (%zu implicated only by new "
              "detections)\n",
              report.machines.size(), report.newly_implicated);
  std::printf("# machine\tevidence\tknown_domains\tdetected_domains\n");
  std::size_t shown = 0;
  for (const auto& machine : report.machines) {
    if (shown++ >= top) {
      break;
    }
    std::printf("%s\t%zu\t%zu\t%zu\n", machine.name.c_str(), machine.evidence(),
                machine.known_domains.size(), machine.detected_domains.size());
  }
  return 0;
}

int cmd_inspect(const util::Args& args) {
  std::ifstream model_in(args.get("model"));
  util::require_data(model_in.is_open(), "cannot open model file");
  const auto segugio = core::Segugio::load(model_in);
  std::printf("%s", core::describe_model(segugio).c_str());
  return 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  util::require_data(in.is_open(), "cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Minimal Prometheus text-exposition check: every line is a `# TYPE` /
// `# HELP` comment or a `name[{labels}] value` sample.
std::string validate_prometheus_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line.front() == '#') {
      continue;
    }
    const auto space = line.rfind(' ');
    if (space == std::string::npos || space == 0 || space + 1 >= line.size()) {
      return "line " + std::to_string(line_no) + " is not a 'name value' sample";
    }
    const std::string value = line.substr(space + 1);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    if (end != value.c_str() + value.size() && value != "+Inf" && value != "-Inf" &&
        value != "NaN") {
      return "line " + std::to_string(line_no) + " has a malformed value '" + value + "'";
    }
  }
  return {};
}

// One row per journaled day: counters, score summary, drift, alerts.
int cmd_status(const util::Args& args) {
  const auto path = args.get("journal");
  const std::string text = read_file(path);
  if (const auto problem = obs::validate_obs_journal(text); !problem.empty()) {
    std::fprintf(stderr, "status: %s: %s\n", path.c_str(), problem.c_str());
    return 1;
  }
  std::istringstream in(text);
  const auto entries = obs::read_journal(in);

  const auto format_double = [](const double* value, const char* format) {
    if (value == nullptr) {
      return std::string("-");
    }
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, format, *value);
    return std::string(buffer);
  };
  const auto format_count = [](const std::uint64_t* value) {
    return value == nullptr ? std::string("-") : std::to_string(*value);
  };

  const auto last = static_cast<std::size_t>(args.get_int_or("last", 0));
  const std::size_t first =
      (last > 0 && entries.size() > last) ? entries.size() - last : 0;
  util::TextTable table(
      {"day", "records", "unknown", "score_mean", "psi", "ks", "calib", "alerts"});
  std::size_t total_alerts = 0;
  for (std::size_t i = first; i < entries.size(); ++i) {
    const obs::JournalEntry& entry = entries[i];
    const obs::JournalHistogram* scores = entry.find_histogram("scores");
    const double mean = scores != nullptr ? scores->mean : 0.0;
    total_alerts += entry.alerts.size();
    table.add_row({std::to_string(entry.day), format_count(entry.find_counter("records")),
                   format_count(entry.find_counter("unknown_domains")),
                   scores != nullptr ? format_double(&mean, "%.4f") : "-",
                   format_double(entry.find_gauge("drift_score_psi"), "%.4f"),
                   format_double(entry.find_gauge("drift_score_ks"), "%.4f"),
                   format_double(entry.find_gauge("calibration_threshold"), "%.4f"),
                   std::to_string(entry.alerts.size())});
  }
  std::printf("%s", table.render().c_str());
  std::printf("journal %s: %zu day(s), %zu alert(s)\n", path.c_str(), entries.size(),
              total_alerts);
  return 0;
}

int cmd_validate_obs(const util::Args& args) {
  util::require_data(args.has("trace") || args.has("run-report") || args.has("metrics") ||
                         args.has("journal"),
                     "validate-obs: pass at least one of "
                     "--trace/--run-report/--metrics/--journal");
  if (args.has("trace")) {
    const auto path = args.get("trace");
    std::string error;
    const auto doc = obs::json::parse(read_file(path), &error);
    if (!error.empty()) {
      std::fprintf(stderr, "validate-obs: %s does not parse: %s\n", path.c_str(), error.c_str());
      return 1;
    }
    if (const auto problem = obs::validate_chrome_trace(doc); !problem.empty()) {
      std::fprintf(stderr, "validate-obs: %s: %s\n", path.c_str(), problem.c_str());
      return 1;
    }
    std::printf("trace %s: ok\n", path.c_str());
  }
  if (args.has("run-report")) {
    const auto path = args.get("run-report");
    std::string error;
    const auto doc = obs::json::parse(read_file(path), &error);
    if (!error.empty()) {
      std::fprintf(stderr, "validate-obs: %s does not parse: %s\n", path.c_str(), error.c_str());
      return 1;
    }
    if (const auto problem = obs::validate_run_report(doc); !problem.empty()) {
      std::fprintf(stderr, "validate-obs: %s: %s\n", path.c_str(), problem.c_str());
      return 1;
    }
    std::printf("run report %s: ok\n", path.c_str());
  }
  if (args.has("metrics")) {
    const auto path = args.get("metrics");
    if (const auto problem = validate_prometheus_text(read_file(path)); !problem.empty()) {
      std::fprintf(stderr, "validate-obs: %s: %s\n", path.c_str(), problem.c_str());
      return 1;
    }
    std::printf("metrics %s: ok\n", path.c_str());
  }
  if (args.has("journal")) {
    const auto path = args.get("journal");
    if (const auto problem = obs::validate_obs_journal(read_file(path)); !problem.empty()) {
      std::fprintf(stderr, "validate-obs: %s: %s\n", path.c_str(), problem.c_str());
      return 1;
    }
    std::printf("journal %s: ok\n", path.c_str());
  }
  return 0;
}

// Writes the obs exporter files requested on the command line, after the
// subcommand has run.
void write_obs_outputs(const std::string& command, const util::Args& args) {
  if (args.has("trace-out")) {
    const auto path = args.get("trace-out");
    std::ofstream out(path);
    util::require_data(out.is_open(), "cannot create '" + path + "'");
    obs::write_chrome_trace(out);
  }
  if (args.has("run-report")) {
    const auto path = args.get("run-report");
    std::ofstream out(path);
    util::require_data(out.is_open(), "cannot create '" + path + "'");
    obs::write_run_report(out, command);
  }
  if (args.has("metrics-out")) {
    const auto path = args.get("metrics-out");
    std::ofstream out(path);
    util::require_data(out.is_open(), "cannot create '" + path + "'");
    obs::Registry::instance().write_prometheus(out);
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: segugio <simgen|train|classify|report|inspect|status|validate-obs> "
               "[options]\n"
               "observability: --trace-out FILE --metrics-out FILE --run-report FILE\n"
               "               --journal FILE --health-interval MS\n"
               "see the header of tools/segugio_cli.cpp for the full option list\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string command = argv[1];
  try {
    const util::Args args(argc - 2, argv + 2, {"machines", "no-prober-filter"});
    if (command == "validate-obs") {
      return cmd_validate_obs(args);
    }
    if (command == "status") {
      return cmd_status(args);
    }
    // Spans are recorded only when a trace-consuming output was requested;
    // metrics are always counted (exporting them costs nothing extra).
    obs::Tracer::instance().set_enabled(args.has("trace-out") || args.has("run-report"));
    int rc = 2;
    if (command == "simgen") {
      rc = cmd_simgen(args);
    } else if (command == "train") {
      rc = cmd_train(args);
    } else if (command == "classify") {
      rc = cmd_classify(args);
    } else if (command == "inspect") {
      rc = cmd_inspect(args);
    } else if (command == "report") {
      rc = cmd_report(args);
    } else {
      return usage();
    }
    if (rc == 0) {
      write_obs_outputs(command, args);
    }
    return rc;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "segugio %s: %s\n", command.c_str(), error.what());
    return 1;
  }
}
