// dnstap capture files: frame-streams framing + the Dnstap protobuf
// subset Segugio needs, hand-decoded (no protobuf dependency).
//
// dnstap (https://dnstap.info) is the de-facto resolver tap format: BIND,
// Unbound, Knot and PowerDNS all emit it. On disk it is a frame-streams
// stream — 4-byte big-endian length-prefixed frames, with length 0
// escaping a control frame (START carries the content type
// "protobuf:dnstap.Dnstap", STOP ends the stream) — where every data
// frame is one encoded `dnstap.Dnstap` protobuf message.
//
// The reader walks the mapped capture zero-copy (frames and protobuf
// fields are borrowed subspans; only the record's strings are
// materialized) and keeps exactly what the paper's deployment model needs
// (§II-A): CLIENT_RESPONSE messages over INET whose embedded DNS response
// resolved at least one A record. The client address is the machine
// identifier — in a live tap the resolver sees clients by IP — and the
// observation day is response_time_sec / 86400 (days since the Unix
// epoch, the same arbitrary-epoch convention the rest of the repo uses).
//
// Structural damage — truncated or oversized frames, a missing START
// frame, a foreign content type, malformed protobuf or DNS payloads —
// throws util::ParseError. Messages that are merely uninteresting
// (queries, non-INET, no A records) are skipped and counted.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "dns/query_log.h"
#include "dns/wire/dns_message.h"

namespace seg::dns::wire {

/// Frames larger than this are rejected as corrupt (dnstap implementations
/// cap frames far below this; a longer length prefix means a desynced or
/// damaged stream).
inline constexpr std::uint32_t kMaxDnstapFrameBytes = 1u << 20;

/// The frame-streams content type a dnstap capture must declare.
inline constexpr std::string_view kDnstapContentType = "protobuf:dnstap.Dnstap";

/// Incremental dnstap reader over a borrowed capture buffer (the caller
/// keeps the mapping alive; FileTraceSource pairs one with a
/// util::MmapFile).
class DnstapReader {
 public:
  /// Validates the leading START control frame. Throws util::ParseError.
  explicit DnstapReader(std::span<const unsigned char> capture);

  /// Decodes frames until one yields a usable record (written to `record`)
  /// or the stream ends (returns false after the STOP frame or clean EOF).
  /// The record's strings and address list are overwritten in place, so a
  /// caller that passes the same record every time allocates only when a
  /// field outgrows its capacity. Throws util::ParseError on structural
  /// damage.
  bool next(QueryRecord& record);

  /// Data frames whose message was well-formed but filtered (queries,
  /// non-INET sockets, responses without A records).
  std::uint64_t skipped() const { return skipped_; }

  /// Bytes of the capture consumed so far.
  std::size_t position() const { return pos_; }

 private:
  std::span<const unsigned char> data_;
  std::size_t pos_ = 0;
  bool stopped_ = false;
  std::uint64_t skipped_ = 0;
  DnsSummary summary_;        // reused across messages
  std::string name_scratch_;  // reused across messages
};

/// Writes `trace` as a dnstap capture (START frame, one CLIENT_RESPONSE
/// Dnstap message per record, STOP frame). Machine identifiers that parse
/// as dotted quads become the client address verbatim; any other spelling
/// is mapped deterministically into 10.0.0.0/8 by hash — wire formats
/// identify clients by address, so non-address identifiers cannot round-
/// trip (use the binlog format when they must). Throws util::ParseError
/// when the file cannot be written.
void write_dnstap_trace(const DayTrace& trace, const std::string& path);

/// The deterministic machine-name → client-address mapping used by
/// write_dnstap_trace / write_pcap_trace for non-address identifiers.
IpV4 machine_address(std::string_view machine);

}  // namespace seg::dns::wire
