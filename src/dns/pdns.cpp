#include "dns/pdns.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "util/require.h"
#include "util/serialize.h"

namespace seg::dns {

void PassiveDnsDb::add_observation(Day day, IpV4 ip, PdnsAssociation kind) {
  switch (kind) {
    case PdnsAssociation::kMalware:
      insert_day(ip_malware_[ip.value()], day);
      insert_day(prefix_malware_[ip.prefix24()], day);
      break;
    case PdnsAssociation::kUnknown:
      insert_day(ip_unknown_[ip.value()], day);
      insert_day(prefix_unknown_[ip.prefix24()], day);
      break;
    case PdnsAssociation::kBenign:
      // Benign associations are not consulted by F3; we still count them so
      // observation_count() reflects ingest volume.
      break;
  }
  ++observations_;
}

void PassiveDnsDb::add_resolution(Day day, std::span<const IpV4> ips, PdnsAssociation kind) {
  for (const auto ip : ips) {
    add_observation(day, ip, kind);
  }
}

bool PassiveDnsDb::ip_malware_associated(IpV4 ip, Day from, Day to) const {
  return any_in_range(ip_malware_, ip.value(), from, to);
}

bool PassiveDnsDb::prefix_malware_associated(IpV4 ip, Day from, Day to) const {
  return any_in_range(prefix_malware_, ip.prefix24(), from, to);
}

bool PassiveDnsDb::ip_unknown_associated(IpV4 ip, Day from, Day to) const {
  return any_in_range(ip_unknown_, ip.value(), from, to);
}

bool PassiveDnsDb::prefix_unknown_associated(IpV4 ip, Day from, Day to) const {
  return any_in_range(prefix_unknown_, ip.prefix24(), from, to);
}

std::size_t PassiveDnsDb::distinct_ip_count() const {
  // An IP may appear in both indexes; count the union. Iteration order is
  // irrelevant to a count.
  std::size_t count = ip_malware_.size();
  for (const auto& [ip, days] : ip_unknown_) {
    if (!ip_malware_.contains(ip)) {
      ++count;
    }
  }
  return count;
}

bool PassiveDnsDb::any_in_range(const DayIndex& index, std::uint32_t key, Day from, Day to) {
  const auto it = index.find(key);
  if (it == index.end()) {
    return false;
  }
  const auto& days = it->second;
  const auto lo = std::lower_bound(days.begin(), days.end(), from);
  return lo != days.end() && *lo <= to;
}

void PassiveDnsDb::absorb(const PassiveDnsDb& other) {
  if (&other != this) {
    absorb_index(ip_malware_, other.ip_malware_);
    absorb_index(ip_unknown_, other.ip_unknown_);
    absorb_index(prefix_malware_, other.prefix_malware_);
    absorb_index(prefix_unknown_, other.prefix_unknown_);
  }
  observations_ = std::max(observations_, other.observations_);
}

void PassiveDnsDb::absorb_index(DayIndex& into, const DayIndex& from) {
  for (const auto& [key, days] : from) {
    // A new key takes an exact-size copy of its days, so absorbing into an
    // empty database costs what a plain copy costs.
    const auto [it, inserted] = into.try_emplace(key, days);
    if (!inserted) {
      for (const auto day : days) {
        insert_day(it->second, day);
      }
    }
  }
}

namespace {

void save_index(std::ostream& out, const char* tag,
                const std::unordered_map<std::uint32_t, std::vector<Day>>& index) {
  // Emit keys in sorted order: iterating the hash table directly would leak
  // its bucket order into the serialized bytes, so two identical databases
  // could produce different files.
  std::vector<std::uint32_t> keys;
  keys.reserve(index.size());
  for (const auto& [key, days] : index) {
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  out << tag << ' ' << index.size() << '\n';
  for (const auto key : keys) {
    out << key;
    for (const auto day : index.at(key)) {
      out << ' ' << day;
    }
    out << '\n';
  }
}

void load_index(std::istream& in, const char* expected_tag,
                std::unordered_map<std::uint32_t, std::vector<Day>>& index) {
  std::string tag;
  std::size_t count = 0;
  in >> tag >> count;
  util::require_data(static_cast<bool>(in) && tag == expected_tag,
                     std::string("PassiveDnsDb::load: expected section '") + expected_tag +
                         "', got '" + tag + "'");
  std::string line;
  std::getline(in, line);
  for (std::size_t i = 0; i < count; ++i) {
    util::require_data(static_cast<bool>(std::getline(in, line)),
                       "PassiveDnsDb::load: truncated section");
    std::istringstream fields(line);
    std::uint32_t key = 0;
    fields >> key;
    auto& days = index[key];
    Day day = 0;
    while (fields >> day) {
      days.push_back(day);
    }
    std::sort(days.begin(), days.end());
    days.erase(std::unique(days.begin(), days.end()), days.end());
  }
}

}  // namespace

void PassiveDnsDb::save(std::ostream& out) const {
  util::write_format_header(out, "pdns", kFormatVersion);
  out << "pdns " << observations_ << '\n';
  save_index(out, "ip_malware", ip_malware_);
  save_index(out, "ip_unknown", ip_unknown_);
  save_index(out, "prefix_malware", prefix_malware_);
  save_index(out, "prefix_unknown", prefix_unknown_);
}

PassiveDnsDb PassiveDnsDb::load(std::istream& in) {
  (void)util::read_format_header(in, "pdns", kFormatVersion);
  std::string tag;
  std::size_t observations = 0;
  in >> tag >> observations;
  util::require_data(static_cast<bool>(in) && tag == "pdns",
                     "PassiveDnsDb::load: malformed header");
  PassiveDnsDb db;
  db.observations_ = observations;
  load_index(in, "ip_malware", db.ip_malware_);
  load_index(in, "ip_unknown", db.ip_unknown_);
  load_index(in, "prefix_malware", db.prefix_malware_);
  load_index(in, "prefix_unknown", db.prefix_unknown_);
  return db;
}

}  // namespace seg::dns
