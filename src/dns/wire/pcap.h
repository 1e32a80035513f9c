// Classic pcap captures, reduced to the UDP port-53 fast path.
//
// A resolver-adjacent tap (the paper's vantage point, §II-A: "below" the
// ISP's recursive resolvers) sees DNS as plain UDP datagrams, so the
// reader implements exactly that slice of pcap: the classic file header
// (both byte orders, microsecond and nanosecond magics), Ethernet
// (including one 802.1Q VLAN tag) and raw-IP link types, IPv4 without
// fragmentation, UDP with source port 53 (responses flow from the
// resolver to the client). Everything else — ARP, IPv6, TCP, fragments,
// other ports — is skipped and counted, never an error; a port-mirror
// tap carries plenty of traffic that is not DNS.
//
// Structural damage (bad magic, truncated packet records, a capture
// header promising more bytes than the file holds) throws
// util::ParseError.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "dns/query_log.h"
#include "dns/wire/dns_message.h"

namespace seg::dns::wire {

/// Packet records longer than this are rejected as corrupt (far above any
/// real snaplen; a longer incl_len means a desynced capture).
inline constexpr std::uint32_t kMaxPcapPacketBytes = 1u << 16;

/// Incremental reader over a borrowed classic-pcap capture buffer.
class PcapReader {
 public:
  /// Validates the 24-byte global header. Throws util::ParseError.
  explicit PcapReader(std::span<const unsigned char> capture);

  /// Walks packet records until one yields a usable record (a UDP port-53
  /// response resolving at least one A record) or the capture ends. The
  /// record is overwritten in place, as in DnstapReader::next(). Throws
  /// util::ParseError on structural damage.
  bool next(QueryRecord& record);

  /// Packets that were well-formed but not Segugio-relevant (non-IPv4,
  /// non-UDP, wrong port, queries, responses without A records).
  std::uint64_t skipped() const { return skipped_; }

  /// EDNS0 OPT pseudo-RRs encountered across the capture's UDP/53
  /// messages: well-formed ones skipped, and malformed/truncated ones
  /// tolerated leniently (see dns_message.h).
  std::uint64_t opt_records() const { return opt_records_; }
  std::uint64_t opt_skipped() const { return opt_skipped_; }

 private:
  std::span<const unsigned char> data_;
  std::size_t pos_ = 0;
  bool swapped_ = false;   // capture byte order != file byte order
  std::uint32_t linktype_ = 0;
  std::uint64_t skipped_ = 0;
  std::uint64_t opt_records_ = 0;
  std::uint64_t opt_skipped_ = 0;
  DnsSummary summary_;        // reused across packets
  std::string name_scratch_;  // reused across packets
};

/// Writes `trace` as a classic pcap capture (microsecond magic, Ethernet
/// link type, one UDP port-53 response datagram per record addressed to
/// the machine's client address — see machine_address() in dnstap.h for
/// the identifier mapping). Throws util::ParseError when the file cannot
/// be written.
void write_pcap_trace(const DayTrace& trace, const std::string& path);

}  // namespace seg::dns::wire
