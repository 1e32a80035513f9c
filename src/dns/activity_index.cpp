#include "dns/activity_index.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <vector>

#include "dns/store_text.h"
#include "util/serialize.h"

namespace seg::dns {

void DomainActivityIndex::mark_active(std::string_view name, Day day) {
  auto it = days_.find(name);
  if (it == days_.end()) {
    it = days_.emplace(std::string(name), DaySet{}).first;
  }
  it->second.insert(day);
}

int DomainActivityIndex::active_days(std::string_view name, Day from, Day to) const {
  const auto it = days_.find(name);
  if (it == days_.end()) {
    return 0;
  }
  if (from > to) {
    // Neither end overflows: to < from <= INT32_MAX and from > to >= INT32_MIN.
    return -it->second.count(to + 1, from - 1);
  }
  return it->second.count(from, to);
}

int DomainActivityIndex::consecutive_days_ending(std::string_view name, Day day) const {
  const auto it = days_.find(name);
  return it == days_.end() ? 0 : it->second.run_ending(day);
}

std::optional<Day> DomainActivityIndex::first_seen(std::string_view name) const {
  const auto it = days_.find(name);
  if (it == days_.end() || it->second.empty()) {
    return std::nullopt;
  }
  return it->second.first();
}

void DomainActivityIndex::save(std::ostream& out) const {
  util::write_format_header(out, "activity", kFormatVersion);
  // Serialize names in sorted order so identical indexes always produce
  // identical bytes; hash-table order would leak into the file otherwise.
  std::vector<std::string_view> names;
  names.reserve(days_.size());
  for (const auto& [name, days] : days_) {
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  out << "activity " << days_.size() << "\n";
  for (const auto name : names) {
    out << name;
    days_.find(name)->second.for_each([&out](Day day) { out << ' ' << day; });
    out << '\n';
  }
}

DomainActivityIndex DomainActivityIndex::load(std::istream& in) {
  StoreTextReader reader(in, "DomainActivityIndex::load");
  reader.format_header("activity", kFormatVersion);
  const auto count = reader.section("activity");
  DomainActivityIndex index;
  for (std::uint64_t i = 0; i < count; ++i) {
    auto& days = index.days_.try_emplace(std::string(reader.entry())).first->second;
    reader.days(days);
    days.shrink_to_fit();
  }
  reader.end();
  return index;
}

}  // namespace seg::dns
