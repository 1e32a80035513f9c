#include "util/lint/report.h"

#include <algorithm>
#include <array>
#include <map>
#include <ostream>

namespace seg::lint {

namespace {

constexpr char kKeySep = '\x1f';

constexpr std::array<std::string_view, 5> kProjectRoots = {
    "src/", "tools/", "bench/", "tests/", "examples/",
};

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string_view rule_description(std::string_view rule) {
  if (rule == "R-DET1") return "no ambient time or randomness in pipeline code";
  if (rule == "R-DET3") return "no unordered-iteration values reaching serialization sinks";
  if (rule == "R-RACE1") return "no std::vector<bool> (racy packed-bit proxy)";
  if (rule == "R-RACE2") return "no shared-capture growth inside parallel lambdas";
  if (rule == "R-HDR1") return "headers must start with #pragma once";
  if (rule == "R-HDR2") return "no using namespace at header scope";
  if (rule == "R-API1") return "no calls to seg-deprecated entry points";
  if (rule == "R-ARCH1") return "include targets must respect layers.toml layering";
  if (rule == "R-ARCH2") return "the quoted-include graph must stay acyclic";
  if (rule == "R-ODR1") return "one definition per external symbol across TUs";
  if (rule == "R-LIFE1") return "no views or references escaping local storage";
  if (rule == "R-OBS1") return "no raw timing primitives outside the obs layer";
  if (rule == "R-MEM1") return "no raw mapping syscalls outside util::MmapFile";
  if (rule == "R-WIRE1") return "raw wire-byte access stays inside ByteCursor";
  if (rule == "R-EXC1") return "thread bodies must route exceptions to their owner";
  if (rule == "R-SUP1") return "suppression directives must cover a live finding";
  return "seg-lint diagnostic";
}

}  // namespace

std::string normalize_path(std::string_view path) {
  std::string p(path);
  std::replace(p.begin(), p.end(), '\\', '/');
  std::size_t best = std::string::npos;
  for (const auto root : kProjectRoots) {
    for (std::size_t at = p.find(root); at != std::string::npos;
         at = p.find(root, at + 1)) {
      if (at == 0 || p[at - 1] == '/') {
        best = std::min(best, at);
        break;  // earliest occurrence of this root is enough
      }
    }
  }
  return best == std::string::npos ? p : p.substr(best);
}

std::string finding_key(const Finding& finding) {
  std::string key = normalize_path(finding.file);
  key += kKeySep;
  key += finding.rule;
  key += kKeySep;
  key += finding.message;
  return key;
}

void write_text(std::ostream& out, const std::vector<Finding>& findings) {
  for (const auto& finding : findings) {
    out << finding.file << ":" << finding.line << ": [" << finding.rule << "] "
        << finding.message << "\n";
  }
}

void write_json(std::ostream& out, const std::vector<Finding>& findings) {
  out << "{\n  \"version\": 1,\n  \"tool\": \"seg-lint\",\n  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const auto& finding = findings[i];
    out << (i == 0 ? "" : ",") << "\n    {\"file\": \""
        << json_escape(normalize_path(finding.file)) << "\", \"line\": "
        << finding.line << ", \"rule\": \"" << json_escape(finding.rule)
        << "\", \"message\": \"" << json_escape(finding.message) << "\"}";
  }
  out << (findings.empty() ? "" : "\n  ") << "]\n}\n";
}

void write_sarif(std::ostream& out, const std::vector<Finding>& findings) {
  // Rule metadata: each distinct rule id once, in sorted order.
  std::map<std::string, std::string_view> rules;
  for (const auto& finding : findings) {
    rules.emplace(finding.rule, rule_description(finding.rule));
  }

  out << "{\n"
      << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"seg-lint\",\n"
      << "          \"version\": \"3.0.0\",\n"
      << "          \"informationUri\": \"docs/static-analysis.md\",\n"
      << "          \"rules\": [";
  std::size_t rule_index = 0;
  for (const auto& [id, description] : rules) {
    out << (rule_index++ == 0 ? "" : ",") << "\n            {\"id\": \""
        << json_escape(id) << "\", \"shortDescription\": {\"text\": \""
        << json_escape(description) << "\"}}";
  }
  out << (rules.empty() ? "" : "\n          ") << "]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const auto& finding = findings[i];
    out << (i == 0 ? "" : ",") << "\n        {\n"
        << "          \"ruleId\": \"" << json_escape(finding.rule) << "\",\n"
        << "          \"level\": \"error\",\n"
        << "          \"message\": {\"text\": \"" << json_escape(finding.message)
        << "\"},\n"
        << "          \"locations\": [\n"
        << "            {\"physicalLocation\": {\"artifactLocation\": {\"uri\": \""
        << json_escape(normalize_path(finding.file))
        << "\"}, \"region\": {\"startLine\": "
        << std::max<std::size_t>(finding.line, 1) << "}}}\n"
        << "          ]\n"
        << "        }";
  }
  out << (findings.empty() ? "" : "\n      ") << "]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
}

std::vector<Finding> subtract_baseline(std::vector<Finding> findings,
                                       const std::vector<std::string>& base_keys) {
  std::map<std::string, std::size_t> budget;
  for (const auto& key : base_keys) {
    ++budget[key];
  }
  std::vector<Finding> fresh;
  for (auto& finding : findings) {
    const auto it = budget.find(finding_key(finding));
    if (it != budget.end() && it->second > 0) {
      --it->second;
      continue;
    }
    fresh.push_back(std::move(finding));
  }
  return fresh;
}

}  // namespace seg::lint
