// Passive DNS database.
//
// The paper's IP-abuse features (F3) consult "a large passive DNS database"
// covering the W = 5 months preceding the observation day: for the IPs a
// domain resolved to, how many were previously pointed to by known
// malware-control domains, and how many were used by unknown domains
// (Section II-A3). This store indexes per-IP and per-/24 observation days,
// bucketed by the label of the pointing domain at observation time.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <unordered_map>
#include <vector>

#include "dns/ip.h"
#include "dns/types.h"

namespace seg::dns {

/// Label of the domain that pointed at an IP, as known when the passive DNS
/// observation was stored.
enum class PdnsAssociation { kMalware, kUnknown, kBenign };

class PassiveDnsDb {
 public:
  /// Records that a domain with association `kind` resolved to `ip` on `day`.
  void add_observation(Day day, IpV4 ip, PdnsAssociation kind);

  /// Convenience: records one observation per resolved IP.
  void add_resolution(Day day, std::span<const IpV4> ips, PdnsAssociation kind);

  /// True if `ip` was pointed to by a known-malware domain on some day in
  /// [from, to] (inclusive).
  bool ip_malware_associated(IpV4 ip, Day from, Day to) const;

  /// True if any IP inside `ip`'s /24 was pointed to by a known-malware
  /// domain during [from, to].
  bool prefix_malware_associated(IpV4 ip, Day from, Day to) const;

  /// True if `ip` was used by a (then-)unknown domain during [from, to].
  bool ip_unknown_associated(IpV4 ip, Day from, Day to) const;

  /// True if any IP inside `ip`'s /24 was used by an unknown domain during
  /// [from, to].
  bool prefix_unknown_associated(IpV4 ip, Day from, Day to) const;

  /// Total stored observations (for reporting).
  std::size_t observation_count() const { return observations_; }

  /// Number of distinct IPs with at least one observation.
  std::size_t distinct_ip_count() const;

  /// Folds `other`'s day indexes into this database: afterwards every key
  /// holds the union of both day sets. observation_count() becomes the max
  /// of the two counts, so absorbing the same snapshot twice changes
  /// nothing.
  void absorb(const PassiveDnsDb& other);

  /// Text serialization of the malware/unknown indexes, prefixed with the
  /// versioned `segf1 pdns <version>` header (util/serialize.h). load()
  /// throws util::ParseError on a stream without the header.
  void save(std::ostream& out) const;
  static PassiveDnsDb load(std::istream& in);

  /// 2 = segf1 header; 1 was the headerless form, no longer read.
  static constexpr int kFormatVersion = 2;

 private:
  // Sorted day lists per key; days are appended mostly in order (the
  // simulator feeds history chronologically), so we keep a sorted invariant
  // lazily with an insertion that is O(1) for in-order appends.
  using DayIndex = std::unordered_map<std::uint32_t, std::vector<Day>>;

  static void absorb_index(DayIndex& into, const DayIndex& from);
  static bool any_in_range(const DayIndex& index, std::uint32_t key, Day from, Day to);

  DayIndex ip_malware_;
  DayIndex ip_unknown_;
  DayIndex prefix_malware_;
  DayIndex prefix_unknown_;
  std::size_t observations_ = 0;
};

}  // namespace seg::dns
