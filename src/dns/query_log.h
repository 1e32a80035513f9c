// DNS query-log records: the raw input Segugio consumes.
//
// Segugio monitors the DNS traffic between ISP customer machines and the
// ISP's local resolver, keeping only successful authoritative responses that
// map a queried domain to valid IP addresses (Section II-A1). A record is
// (day, machine identifier, queried FQDN, resolved IPs). Records are
// carried in memory (DayTrace, what the simulator produces) or written to
// a TSV or SEGTRC1 binlog file for offline runs; every trace file is read
// back through dns::FileTraceSource (dns/trace_source.h).
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dns/ip.h"
#include "dns/types.h"

namespace seg::dns {

/// One resolved DNS query observed at the local resolver.
struct QueryRecord {
  Day day = 0;
  std::string machine;            ///< stable machine identifier (paper §III)
  std::string qname;              ///< queried fully-qualified domain name
  std::vector<IpV4> resolved_ips; ///< A-record answers

  friend bool operator==(const QueryRecord&, const QueryRecord&) = default;
};

/// All query records observed in one observation window T (one day in the
/// paper's deployments).
struct DayTrace {
  Day day = 0;
  std::vector<QueryRecord> records;
};

/// Writes a trace as TSV: day \t machine \t qname \t ip1,ip2,...
/// Throws util::ParseError when the file cannot be created.
void write_trace(const DayTrace& trace, const std::string& path);

/// Compact binary form (roughly 3-4x smaller than the TSV): little-endian,
/// length-prefixed strings, magic header "SEGTRC1". ISP-scale days run to
/// hundreds of millions of records, where the text format stops being
/// practical. Written through BinaryTraceWriter.
void write_trace_binary(const DayTrace& trace, const std::string& path);

/// Streams SEGTRC1 binary traces record by record, for traces too large to
/// hold as a DayTrace (the record count must be known up front — the format
/// stores it in the header). add() must be called exactly `count` times
/// before finish(); finish() validates the stream and is implied by the
/// destructor (which swallows errors — call finish() to observe them).
class BinaryTraceWriter {
 public:
  BinaryTraceWriter(const std::string& path, Day day, std::uint64_t count);
  ~BinaryTraceWriter();
  BinaryTraceWriter(const BinaryTraceWriter&) = delete;
  BinaryTraceWriter& operator=(const BinaryTraceWriter&) = delete;

  void add(std::string_view machine, std::string_view qname,
           std::span<const IpV4> resolved_ips);
  void finish();

 private:
  std::ofstream out_;
  std::uint64_t expected_;
  std::uint64_t written_ = 0;
  bool finished_ = false;
};

}  // namespace seg::dns
