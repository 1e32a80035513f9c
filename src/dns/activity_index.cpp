#include "dns/activity_index.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/require.h"
#include "util/serialize.h"

namespace seg::dns {

void DomainActivityIndex::mark_active(std::string_view name, Day day) {
  auto it = days_.find(name);
  if (it == days_.end()) {
    it = days_.emplace(std::string(name), std::vector<Day>{}).first;
  }
  insert_day(it->second, day);
}

int DomainActivityIndex::active_days(std::string_view name, Day from, Day to) const {
  const auto it = days_.find(name);
  if (it == days_.end()) {
    return 0;
  }
  const auto& days = it->second;
  const auto lo = std::lower_bound(days.begin(), days.end(), from);
  const auto hi = std::upper_bound(days.begin(), days.end(), to);
  return static_cast<int>(hi - lo);
}

int DomainActivityIndex::consecutive_days_ending(std::string_view name, Day day) const {
  const auto it = days_.find(name);
  if (it == days_.end()) {
    return 0;
  }
  const auto& days = it->second;
  auto pos = std::lower_bound(days.begin(), days.end(), day);
  if (pos == days.end() || *pos != day) {
    return 0;
  }
  int count = 1;
  Day expected = day - 1;
  while (pos != days.begin()) {
    --pos;
    if (*pos != expected) {
      break;
    }
    ++count;
    --expected;
  }
  return count;
}

std::optional<Day> DomainActivityIndex::first_seen(std::string_view name) const {
  const auto it = days_.find(name);
  if (it == days_.end() || it->second.empty()) {
    return std::nullopt;
  }
  return it->second.front();
}

void DomainActivityIndex::absorb(const DomainActivityIndex& other) {
  if (&other == this) {
    return;
  }
  for (const auto& [name, days] : other.days_) {
    // A new name takes an exact-size copy of its days, so absorbing into
    // an empty index costs what a plain copy costs.
    const auto [it, inserted] = days_.try_emplace(name, days);
    if (!inserted) {
      for (const auto day : days) {
        insert_day(it->second, day);
      }
    }
  }
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
    for (const auto day : days_.find(name)->second) {
      out << ' ' << day;
    }
    out << '\n';
  }
}

DomainActivityIndex DomainActivityIndex::load(std::istream& in) {
  (void)util::read_format_header(in, "activity", kFormatVersion);
  std::string tag;
  std::size_t count = 0;
  in >> tag >> count;
  util::require_data(static_cast<bool>(in) && tag == "activity",
                     "DomainActivityIndex::load: malformed header");
  std::string line;
  std::getline(in, line);  // consume rest of header line
  DomainActivityIndex index;
  for (std::size_t i = 0; i < count; ++i) {
    util::require_data(static_cast<bool>(std::getline(in, line)),
                       "DomainActivityIndex::load: truncated file");
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    util::require_data(!name.empty(), "DomainActivityIndex::load: empty name");
    Day day = 0;
    while (fields >> day) {
      index.mark_active(name, day);
    }
  }
  return index;
}

}  // namespace seg::dns
