// Minimal DNS wire-message codec (RFC 1035 subset).
//
// The ingestion front end only needs the fields Segugio's QueryRecord
// carries (paper §II-A1): the queried name and the A-record answers of a
// successful response. summarize() extracts exactly that from a raw DNS
// message — header, first question, answer section with name-compression
// support — and nothing else; authority/additional sections are skipped
// structurally (they must still be well-formed, so corrupt captures fail
// loudly instead of yielding half-parsed records). The one deliberate
// leniency: EDNS0 OPT pseudo-RRs (RFC 6891) in the additional section are
// skipped and counted even when truncated by the capture's snap length —
// a malformed OPT ends the additional section, it does not reject the
// message (opt_records / opt_skipped in the summary).
//
// Structural malformation (truncation, compression-pointer loops, label
// overflow) throws util::ParseError; semantically uninteresting messages
// (queries, NXDOMAIN, answers without A records) parse fine and are
// filtered by the caller via the summary fields.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dns/ip.h"

namespace seg::dns::wire {

/// What the resolver said, reduced to Segugio's needs. A reader keeps one
/// across messages: summarize() overwrites every field, and qname and
/// a_records keep their capacity, so a steady stream stops allocating.
struct DnsSummary {
  bool is_response = false;   ///< QR bit
  std::uint8_t rcode = 0;     ///< 0 = NOERROR
  std::string qname;          ///< first question, dotted form, no trailing dot
  std::vector<IpV4> a_records;  ///< A/IN rdata from the answer section
  /// EDNS0 OPT pseudo-RRs (RFC 6891, type 41) in the additional section:
  /// well-formed ones skipped, plus malformed/truncated ones that ended the
  /// additional section leniently instead of rejecting the message.
  std::uint32_t opt_records = 0;
  std::uint32_t opt_skipped = 0;
};

/// Parses one DNS message into `summary`, overwriting every field.
/// `name_scratch` receives the names the summary does not keep (later
/// questions, resource-record owners); pass the same buffer every call.
/// Throws util::ParseError on malformed wire data, leaving `summary`
/// unspecified.
void summarize(std::span<const unsigned char> message, DnsSummary& summary,
               std::string& name_scratch);

/// Encodes a well-formed NOERROR response for `qname` with one A record
/// per address (uncompressed). The capture writers and tests use this; a
/// real deployment only ever decodes.
std::vector<unsigned char> encode_response(std::string_view qname,
                                           std::span<const IpV4> a_records,
                                           std::uint16_t id = 0);

}  // namespace seg::dns::wire
