#include "dns/pdns.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <vector>

#include "dns/store_text.h"
#include "util/serialize.h"

namespace seg::dns {

void PassiveDnsDb::add_observation(Day day, IpV4 ip, PdnsAssociation kind) {
  switch (kind) {
    case PdnsAssociation::kMalware:
      ip_malware_[ip.value()].insert(day);
      prefix_malware_[ip.prefix24()].insert(day);
      break;
    case PdnsAssociation::kUnknown:
      ip_unknown_[ip.value()].insert(day);
      prefix_unknown_[ip.prefix24()].insert(day);
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
  return it != index.end() && it->second.any_in(from, to);
}

namespace {

void save_index(std::ostream& out, const char* tag,
                const std::unordered_map<std::uint32_t, DaySet>& index) {
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
    index.at(key).for_each([&out](Day day) { out << ' ' << day; });
    out << '\n';
  }
}

void load_index(StoreTextReader& reader, const char* tag,
                std::unordered_map<std::uint32_t, DaySet>& index) {
  const auto count = reader.section(tag);
  for (std::uint64_t i = 0; i < count; ++i) {
    auto& days = index[reader.key_u32(reader.entry())];
    reader.days(days);
    days.shrink_to_fit();
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
  StoreTextReader reader(in, "PassiveDnsDb::load");
  reader.format_header("pdns", kFormatVersion);
  PassiveDnsDb db;
  db.observations_ = reader.section("pdns");
  load_index(reader, "ip_malware", db.ip_malware_);
  load_index(reader, "ip_unknown", db.ip_unknown_);
  load_index(reader, "prefix_malware", db.prefix_malware_);
  load_index(reader, "prefix_unknown", db.prefix_unknown_);
  reader.end();
  return db;
}

}  // namespace seg::dns
