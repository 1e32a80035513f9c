// Wire-format corpus tests: dnstap and pcap round trips, format
// detection, and — the larger half — a malformed-input corpus. Every
// structurally damaged capture must throw util::ParseError; a truncation
// may also read as a clean (shorter) stream when the cut lands exactly on
// a frame boundary, but nothing in between is acceptable and nothing may
// crash. The whole file runs again under asan in the CI matrix's "ingest"
// leg, which is what turns "no crash" into "no UB".
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "dns/query_log.h"
#include "dns/trace_source.h"
#include "dns/wire/dns_message.h"
#include "dns/wire/dnstap.h"
#include "dns/wire/pcap.h"
#include "util/require.h"
#include "util/rng.h"

namespace seg::dns {
namespace {

class WireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = (std::filesystem::temp_directory_path() /
             ("seg_wire_" + std::to_string(::getpid())))
                .string();
  }
  void TearDown() override {
    for (const auto& path : files_) {
      std::filesystem::remove(path);
    }
  }

  std::string temp_path(const std::string& suffix) {
    files_.push_back(base_ + suffix);
    return files_.back();
  }

  static std::vector<unsigned char> read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                      std::istreambuf_iterator<char>());
  }

  std::string write_bytes(const std::string& suffix,
                          const std::vector<unsigned char>& bytes) {
    const auto path = temp_path(suffix);
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  // A trace whose machine identifiers are dotted quads, so the lossy wire
  // formats round-trip it exactly (day 20 keeps the pcap u32 timestamp
  // positive).
  static DayTrace wire_trace(std::size_t records, std::uint64_t seed = 11) {
    DayTrace trace;
    trace.day = 20;
    util::Rng rng(seed);
    for (std::size_t i = 0; i < records; ++i) {
      QueryRecord record;
      record.day = trace.day;
      record.machine = IpV4::from_octets(192, 168,
                                         static_cast<std::uint8_t>(rng.next_below(4)),
                                         static_cast<std::uint8_t>(rng.next_below(200)))
                           .to_string();
      record.qname = "host" + std::to_string(i) + ".example" +
                     std::to_string(rng.next_below(7)) + ".com";
      const auto ips = 1 + rng.next_below(3);  // wire readers drop 0-A responses
      for (std::uint64_t k = 0; k < ips; ++k) {
        record.resolved_ips.push_back(IpV4(static_cast<std::uint32_t>(rng.next())));
      }
      trace.records.push_back(std::move(record));
    }
    return trace;
  }

  static std::vector<QueryRecord> drain(TraceSource& source) {
    std::vector<QueryRecord> records;
    QueryRecord record;
    while (source.next(record)) {
      records.push_back(record);
    }
    return records;
  }

  // Feeds every strict prefix of `capture` to `parse`. A prefix must
  // either parse cleanly (cut on a frame boundary) or throw ParseError;
  // anything else — a foreign exception or a crash — fails the test.
  template <typename Parse>
  static void expect_truncations_contained(const std::vector<unsigned char>& capture,
                                           const Parse& parse) {
    std::size_t rejected = 0;
    for (std::size_t length = 0; length < capture.size(); ++length) {
      const std::span<const unsigned char> prefix(capture.data(), length);
      try {
        parse(prefix);
      } catch (const util::ParseError&) {
        ++rejected;  // the expected failure mode
      } catch (const std::exception& error) {
        FAIL() << "prefix of " << length << " bytes escaped ParseError: "
               << error.what();
      }
    }
    EXPECT_GT(rejected, 0u) << "no truncation was ever rejected";
  }

  std::string base_;
  std::vector<std::string> files_;
};

void append_be32(std::vector<unsigned char>& out, std::uint32_t value) {
  out.push_back(static_cast<unsigned char>(value >> 24));
  out.push_back(static_cast<unsigned char>((value >> 16) & 0xff));
  out.push_back(static_cast<unsigned char>((value >> 8) & 0xff));
  out.push_back(static_cast<unsigned char>(value & 0xff));
}

void append_le32(std::vector<unsigned char>& out, std::uint32_t value) {
  out.push_back(static_cast<unsigned char>(value & 0xff));
  out.push_back(static_cast<unsigned char>((value >> 8) & 0xff));
  out.push_back(static_cast<unsigned char>((value >> 16) & 0xff));
  out.push_back(static_cast<unsigned char>(value >> 24));
}

// Minimal protobuf writer for hand-crafting filtered (but well-formed)
// dnstap messages the trace writer never emits.
void append_varint(std::vector<unsigned char>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<unsigned char>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<unsigned char>(value));
}

void append_key(std::vector<unsigned char>& out, std::uint32_t field,
                std::uint32_t wire_type) {
  append_varint(out, (static_cast<std::uint64_t>(field) << 3) | wire_type);
}

// Classic pcap global header: microsecond magic, little-endian, Ethernet.
std::vector<unsigned char> pcap_header() {
  std::vector<unsigned char> capture;
  append_le32(capture, 0xa1b2c3d4);
  append_le32(capture, 0x00040002);
  append_le32(capture, 0);
  append_le32(capture, 0);
  append_le32(capture, wire::kMaxPcapPacketBytes);
  append_le32(capture, 1);
  return capture;
}

// Runs `parse`, which must throw util::ParseError, and returns what().
// The readers format that text only once a check has failed
// (dns/wire/bytes.h); the cases below pin it exactly.
template <typename Parse>
std::string parse_error_text(const Parse& parse) {
  try {
    parse();
  } catch (const util::ParseError& error) {
    return error.what();
  }
  ADD_FAILURE() << "no util::ParseError";
  return {};
}

std::string read_pcap_error(const std::vector<unsigned char>& capture) {
  return parse_error_text([&capture] {
    wire::PcapReader reader(capture);
    QueryRecord record;
    while (reader.next(record)) {
    }
  });
}

// --- dnstap ----------------------------------------------------------------

TEST_F(WireTest, DnstapRoundTripPreservesDottedQuadRecords) {
  const auto trace = wire_trace(200);
  const auto path = temp_path(".dnstap");
  wire::write_dnstap_trace(trace, path);

  const auto capture = read_bytes(path);
  wire::DnstapReader reader(capture);
  QueryRecord record;
  std::size_t index = 0;
  while (reader.next(record)) {
    ASSERT_LT(index, trace.records.size());
    EXPECT_EQ(record, trace.records[index]) << "record " << index;
    ++index;
  }
  EXPECT_EQ(index, trace.records.size());
  EXPECT_EQ(reader.skipped(), 0u);

  // The FileTraceSource path (mmap + autodetection) sees the same stream.
  FileTraceSource source(path);
  EXPECT_EQ(source.format(), TraceFormat::kDnstap);
  EXPECT_EQ(drain(source), trace.records);
}

TEST_F(WireTest, MachineAddressMapsDottedQuadsVerbatimAndHashesTheRest) {
  EXPECT_EQ(wire::machine_address("192.168.3.9").to_string(), "192.168.3.9");
  const auto hashed = wire::machine_address("laptop-7");
  EXPECT_EQ(hashed.value() >> 24, 10u);  // non-addresses land in 10.0.0.0/8
  EXPECT_EQ(wire::machine_address("laptop-7").value(), hashed.value());
  EXPECT_NE(wire::machine_address("laptop-8").value(), hashed.value());
  // A numeric-looking but invalid quad falls back to the hash, not an error.
  EXPECT_EQ(wire::machine_address("999.999.999.999").value() >> 24, 10u);

  DayTrace trace;
  trace.day = 20;
  trace.records.push_back(
      {20, "laptop-7", "c2.example.com", {IpV4::from_octets(203, 0, 113, 9)}});
  const auto path = temp_path(".hashed.dnstap");
  wire::write_dnstap_trace(trace, path);
  FileTraceSource source(path);
  const auto records = drain(source);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].machine, hashed.to_string());
  EXPECT_EQ(records[0].qname, "c2.example.com");
}

TEST_F(WireTest, DnstapEveryTruncationIsParseErrorOrCleanBoundary) {
  const auto path = temp_path(".trunc.dnstap");
  wire::write_dnstap_trace(wire_trace(3), path);
  const auto capture = read_bytes(path);
  expect_truncations_contained(capture, [](std::span<const unsigned char> prefix) {
    wire::DnstapReader reader(prefix);
    QueryRecord record;
    while (reader.next(record)) {
    }
  });
}

TEST_F(WireTest, DnstapRejectsStreamsWithoutStart) {
  // Empty capture: not even the control escape fits.
  EXPECT_THROW(wire::DnstapReader{std::span<const unsigned char>()}, util::ParseError);
  // A nonzero first word is a data frame where START must be.
  const std::vector<unsigned char> garbage = {'G', 'A', 'R', 'B', 'A', 'G', 'E', '!'};
  EXPECT_THROW(wire::DnstapReader{std::span<const unsigned char>(garbage)},
               util::ParseError);
}

TEST_F(WireTest, DnstapRejectsForeignContentType) {
  const auto path = temp_path(".foreign.dnstap");
  wire::write_dnstap_trace(DayTrace{20, {}}, path);
  auto capture = read_bytes(path);
  // The content type string sits inside the START frame; corrupting one
  // byte of "protobuf:dnstap.Dnstap" makes it foreign.
  const std::string_view content = wire::kDnstapContentType;
  auto it = std::search(capture.begin(), capture.end(), content.begin(), content.end());
  ASSERT_NE(it, capture.end());
  *it = 'X';
  EXPECT_THROW(wire::DnstapReader{std::span<const unsigned char>(capture)},
               util::ParseError);
}

TEST_F(WireTest, DnstapRejectsOversizedFrames) {
  const auto path = temp_path(".oversize.dnstap");
  wire::write_dnstap_trace(DayTrace{20, {}}, path);
  auto capture = read_bytes(path);
  capture.resize(capture.size() - 12);  // drop the STOP control frame
  append_be32(capture, wire::kMaxDnstapFrameBytes + 1);
  capture.push_back(0);  // a length prefix promising a gigabyte needs no body

  EXPECT_EQ(parse_error_text([&capture] {
              wire::DnstapReader reader(capture);
              QueryRecord record;
              reader.next(record);
            }),
            "dnstap: oversized frame (1048577 bytes)");
}

TEST_F(WireTest, DnstapStopFrameEndsConcatenatedCaptures) {
  // Two captures cat'ed together: the STOP of the first ends the stream;
  // the second capture's records must not leak through.
  const auto first = wire_trace(5, 1);
  const auto second = wire_trace(7, 2);
  const auto path_a = temp_path(".a.dnstap");
  const auto path_b = temp_path(".b.dnstap");
  wire::write_dnstap_trace(first, path_a);
  wire::write_dnstap_trace(second, path_b);
  auto capture = read_bytes(path_a);
  const auto tail = read_bytes(path_b);
  capture.insert(capture.end(), tail.begin(), tail.end());

  wire::DnstapReader reader(capture);
  QueryRecord record;
  std::size_t count = 0;
  while (reader.next(record)) {
    ++count;
  }
  EXPECT_EQ(count, first.records.size());
  EXPECT_FALSE(reader.next(record));  // stays stopped
}

TEST_F(WireTest, DnstapFiltersQueriesWithoutError) {
  // Hand-craft a CLIENT_QUERY (type 5) message: well-formed, irrelevant.
  std::vector<unsigned char> message;
  append_key(message, 1, 0);  // Message.type
  append_varint(message, 5);  // CLIENT_QUERY
  std::vector<unsigned char> envelope;
  append_key(envelope, 15, 0);  // Dnstap.type
  append_varint(envelope, 1);   // MESSAGE
  append_key(envelope, 14, 2);  // Dnstap.message
  append_varint(envelope, message.size());
  envelope.insert(envelope.end(), message.begin(), message.end());

  const auto path = temp_path(".query.dnstap");
  wire::write_dnstap_trace(DayTrace{20, {}}, path);
  auto capture = read_bytes(path);
  capture.resize(capture.size() - 12);  // splice the frame in before STOP
  append_be32(capture, static_cast<std::uint32_t>(envelope.size()));
  capture.insert(capture.end(), envelope.begin(), envelope.end());
  append_be32(capture, 0);
  append_be32(capture, 4);
  append_be32(capture, 0x03);  // STOP

  wire::DnstapReader reader(capture);
  QueryRecord record;
  EXPECT_FALSE(reader.next(record));
  EXPECT_EQ(reader.skipped(), 1u);
}

// --- pcap ------------------------------------------------------------------

TEST_F(WireTest, PcapRoundTripPreservesDottedQuadRecords) {
  const auto trace = wire_trace(150);
  const auto path = temp_path(".pcap");
  wire::write_pcap_trace(trace, path);

  const auto capture = read_bytes(path);
  wire::PcapReader reader(capture);
  QueryRecord record;
  std::size_t index = 0;
  while (reader.next(record)) {
    ASSERT_LT(index, trace.records.size());
    EXPECT_EQ(record, trace.records[index]) << "record " << index;
    ++index;
  }
  EXPECT_EQ(index, trace.records.size());
  EXPECT_EQ(reader.skipped(), 0u);

  FileTraceSource source(path);
  EXPECT_EQ(source.format(), TraceFormat::kPcap);
  EXPECT_EQ(drain(source), trace.records);
}

TEST_F(WireTest, PcapRejectsGarbageHeaders) {
  const std::vector<unsigned char> bad_magic = {0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0,
                                                0,    0,    0,    0,    0, 0, 0, 0,
                                                0,    0,    0,    0,    0, 0, 0, 0};
  EXPECT_THROW(wire::PcapReader{std::span<const unsigned char>(bad_magic)},
               util::ParseError);

  // Right magic, header cut short.
  std::vector<unsigned char> short_header;
  append_le32(short_header, 0xa1b2c3d4);
  EXPECT_THROW(wire::PcapReader{std::span<const unsigned char>(short_header)},
               util::ParseError);

  // Right magic, unsupported link type (LINKTYPE_IEEE802_11 = 105).
  std::vector<unsigned char> wifi;
  append_le32(wifi, 0xa1b2c3d4);
  append_le32(wifi, 0x00040002);
  append_le32(wifi, 0);
  append_le32(wifi, 0);
  append_le32(wifi, 65535);
  append_le32(wifi, 105);
  EXPECT_THROW(wire::PcapReader{std::span<const unsigned char>(wifi)},
               util::ParseError);
}

TEST_F(WireTest, PcapEveryTruncationIsParseErrorOrCleanBoundary) {
  const auto path = temp_path(".trunc.pcap");
  wire::write_pcap_trace(wire_trace(3), path);
  const auto capture = read_bytes(path);
  expect_truncations_contained(capture, [](std::span<const unsigned char> prefix) {
    wire::PcapReader reader(prefix);
    QueryRecord record;
    while (reader.next(record)) {
    }
  });
}

TEST_F(WireTest, PcapRejectsOversizedPacketRecords) {
  const auto path = temp_path(".oversize.pcap");
  wire::write_pcap_trace(DayTrace{20, {}}, path);
  auto capture = read_bytes(path);  // just the 24-byte global header
  ASSERT_EQ(capture.size(), 24u);
  append_le32(capture, 1728000);  // ts_sec
  append_le32(capture, 0);        // ts_frac
  append_le32(capture, wire::kMaxPcapPacketBytes + 1);
  append_le32(capture, wire::kMaxPcapPacketBytes + 1);

  EXPECT_EQ(read_pcap_error(capture), "pcap: oversized packet record (65537 bytes)");
}

TEST_F(WireTest, PcapSkipsSnaplenTruncatedAndNonDnsPackets) {
  const auto path = temp_path(".skips.pcap");
  const auto trace = wire_trace(1);
  wire::write_pcap_trace(trace, path);
  auto capture = read_bytes(path);

  // Prepend two irrelevant packets after the global header: one truncated
  // by the snaplen (incl_len < orig_len), one full-length non-IPv4 frame
  // (60 zero bytes: ethertype 0x0000). Both are skipped, never errors.
  std::vector<unsigned char> spliced(capture.begin(), capture.begin() + 24);
  append_le32(spliced, 1728000);
  append_le32(spliced, 0);
  append_le32(spliced, 4);    // incl_len
  append_le32(spliced, 400);  // orig_len: the tap cut this packet short
  spliced.insert(spliced.end(), {0xaa, 0xbb, 0xcc, 0xdd});
  append_le32(spliced, 1728000);
  append_le32(spliced, 0);
  append_le32(spliced, 60);
  append_le32(spliced, 60);
  spliced.insert(spliced.end(), 60, 0x00);
  spliced.insert(spliced.end(), capture.begin() + 24, capture.end());

  wire::PcapReader reader(spliced);
  QueryRecord record;
  ASSERT_TRUE(reader.next(record));
  EXPECT_EQ(record, trace.records[0]);
  EXPECT_FALSE(reader.next(record));
  EXPECT_EQ(reader.skipped(), 2u);
}

// --- EDNS0 OPT pseudo-RRs (RFC 6891) ---------------------------------------

// OPT RR wire bytes: root name, type 41, UDP size 4096, zero extended
// rcode/flags, `rdlength` with that many zero rdata bytes appended.
std::vector<unsigned char> opt_rr(std::uint16_t rdlength) {
  std::vector<unsigned char> rr = {0x00, 0x00, 0x29, 0x10, 0x00,
                                   0x00, 0x00, 0x00, 0x00};
  rr.push_back(static_cast<unsigned char>(rdlength >> 8));
  rr.push_back(static_cast<unsigned char>(rdlength & 0xff));
  rr.insert(rr.end(), rdlength, 0x00);
  return rr;
}

// Patches the header's arcount (bytes 10-11) and appends `tail` as the
// additional section.
std::vector<unsigned char> with_additional(std::vector<unsigned char> message,
                                           std::uint16_t arcount,
                                           const std::vector<unsigned char>& tail) {
  message[10] = static_cast<unsigned char>(arcount >> 8);
  message[11] = static_cast<unsigned char>(arcount & 0xff);
  message.insert(message.end(), tail.begin(), tail.end());
  return message;
}

TEST_F(WireTest, SummarizeCountsWellFormedOptRecords) {
  const std::vector<IpV4> ips = {IpV4::from_octets(10, 1, 2, 3)};
  auto tail = opt_rr(0);
  const auto second = opt_rr(6);
  tail.insert(tail.end(), second.begin(), second.end());
  const auto message =
      with_additional(wire::encode_response("cc.example.com", ips), 2, tail);

  wire::DnsSummary summary;
  std::string scratch;
  wire::summarize(message, summary, scratch);
  EXPECT_EQ(summary.qname, "cc.example.com");
  ASSERT_EQ(summary.a_records.size(), 1u);
  EXPECT_EQ(summary.opt_records, 2u);
  EXPECT_EQ(summary.opt_skipped, 0u);
}

TEST_F(WireTest, SummarizeToleratesSnaplenTruncatedOpt) {
  const std::vector<IpV4> ips = {IpV4::from_octets(10, 1, 2, 3)};
  const auto base = wire::encode_response("cc.example.com", ips);

  // One summary and scratch buffer across all three messages, as a reader
  // keeps them: every call starts from fresh counts.
  wire::DnsSummary summary;
  std::string scratch;

  // Cut right after the OPT's name + type: nothing left for the fixed
  // header. The message still summarizes — answers intact, OPT counted as
  // skipped.
  const auto after_type = with_additional(base, 1, {0x00, 0x00, 0x29});
  wire::summarize(after_type, summary, scratch);
  ASSERT_EQ(summary.a_records.size(), 1u);
  EXPECT_EQ(summary.opt_records, 0u);
  EXPECT_EQ(summary.opt_skipped, 1u);

  // rdlength promises more rdata than the capture holds.
  auto lying = opt_rr(6);
  lying.resize(lying.size() - 6);
  wire::summarize(with_additional(base, 1, lying), summary, scratch);
  ASSERT_EQ(summary.a_records.size(), 1u);
  EXPECT_EQ(summary.opt_records, 0u);
  EXPECT_EQ(summary.opt_skipped, 1u);

  // A truncated OPT ends the additional section: a second record behind it
  // is never reached, and that is leniency, not an error.
  auto pair = opt_rr(6);
  pair.resize(pair.size() - 6);
  wire::summarize(with_additional(base, 2, pair), summary, scratch);
  EXPECT_EQ(summary.opt_records, 0u);
  EXPECT_EQ(summary.opt_skipped, 1u);
}

TEST_F(WireTest, SummarizeOverwritesEveryFieldOfAReusedSummary) {
  wire::DnsSummary summary;
  std::string scratch;
  const std::vector<IpV4> three = {IpV4::from_octets(10, 1, 2, 3),
                                   IpV4::from_octets(10, 1, 2, 4),
                                   IpV4::from_octets(10, 1, 2, 5)};
  wire::summarize(with_additional(wire::encode_response("first.example.com", three), 1,
                                  opt_rr(0)),
                  summary, scratch);
  ASSERT_EQ(summary.a_records.size(), 3u);
  EXPECT_EQ(summary.opt_records, 1u);

  // A query (QR clear, no questions, no answers) leaves nothing behind.
  const std::vector<unsigned char> query = {0x12, 0x34, 0x01, 0x00, 0, 0, 0, 0, 0, 0, 0, 0};
  wire::summarize(query, summary, scratch);
  EXPECT_FALSE(summary.is_response);
  EXPECT_EQ(summary.rcode, 0u);
  EXPECT_TRUE(summary.qname.empty());
  EXPECT_TRUE(summary.a_records.empty());
  EXPECT_EQ(summary.opt_records, 0u);
  EXPECT_EQ(summary.opt_skipped, 0u);

  const std::vector<IpV4> one = {IpV4::from_octets(192, 0, 2, 1)};
  wire::summarize(wire::encode_response("b.example", one), summary, scratch);
  EXPECT_TRUE(summary.is_response);
  EXPECT_EQ(summary.qname, "b.example");
  EXPECT_EQ(summary.a_records, one);
}

TEST_F(WireTest, SummarizeKeepsNonOptAdditionalStrict) {
  const std::vector<IpV4> ips = {IpV4::from_octets(10, 1, 2, 3)};
  const auto base = wire::encode_response("cc.example.com", ips);

  wire::DnsSummary summary;
  std::string scratch;

  // arcount lies outright: no additional bytes at all. The name read fails
  // before the OPT leniency can apply.
  EXPECT_THROW(wire::summarize(with_additional(base, 1, {}), summary, scratch),
               util::ParseError);

  // A truncated non-OPT additional record (root name, type A, partial
  // class) stays a hard parse error.
  EXPECT_THROW(wire::summarize(with_additional(base, 1, {0x00, 0x00, 0x01, 0x00}), summary,
                               scratch),
               util::ParseError);
}

// One UDP/53 response packet (Ethernet + IPv4 + UDP) carrying `dns`,
// appended as a pcap packet record — the same layout write_pcap_trace
// emits, for captures whose DNS payload it cannot produce.
void append_udp53_packet(std::vector<unsigned char>& capture, Day day,
                         const std::string& machine,
                         const std::vector<unsigned char>& dns) {
  std::vector<unsigned char> packet;
  const auto p8 = [&packet](std::uint8_t v) { packet.push_back(v); };
  const auto p16 = [&packet](std::uint16_t v) {
    packet.push_back(static_cast<unsigned char>(v >> 8));
    packet.push_back(static_cast<unsigned char>(v & 0xff));
  };
  const auto p32 = [&packet](std::uint32_t v) {
    packet.push_back(static_cast<unsigned char>(v >> 24));
    packet.push_back(static_cast<unsigned char>((v >> 16) & 0xff));
    packet.push_back(static_cast<unsigned char>((v >> 8) & 0xff));
    packet.push_back(static_cast<unsigned char>(v & 0xff));
  };
  for (int i = 0; i < 12; ++i) {
    p8(static_cast<std::uint8_t>(i < 6 ? 0x02 : 0x04));
  }
  p16(0x0800);  // IPv4
  const auto udp_len = static_cast<std::uint16_t>(8 + dns.size());
  p8(0x45);
  p8(0);
  p16(static_cast<std::uint16_t>(20 + udp_len));
  p16(0);   // id
  p16(0);   // flags/fragment
  p8(64);   // ttl
  p8(17);   // UDP
  p16(0);   // checksum
  p32(IpV4::from_octets(10, 0, 0, 53).value());
  p32(wire::machine_address(machine).value());
  p16(53);
  p16(40000);
  p16(udp_len);
  p16(0);
  packet.insert(packet.end(), dns.begin(), dns.end());

  append_le32(capture, static_cast<std::uint32_t>(static_cast<std::int64_t>(day) * 86400));
  append_le32(capture, 0);
  append_le32(capture, static_cast<std::uint32_t>(packet.size()));
  append_le32(capture, static_cast<std::uint32_t>(packet.size()));
  capture.insert(capture.end(), packet.begin(), packet.end());
}

TEST_F(WireTest, PcapAccumulatesOptCountsAcrossMessages) {
  const auto trace = wire_trace(2);
  const auto dns0 = with_additional(
      wire::encode_response(trace.records[0].qname, trace.records[0].resolved_ips),
      1, opt_rr(4));
  const auto dns1 = with_additional(
      wire::encode_response(trace.records[1].qname, trace.records[1].resolved_ips),
      1, {0x00, 0x00, 0x29});  // snaplen ate the OPT header

  auto capture = pcap_header();
  append_udp53_packet(capture, trace.day, trace.records[0].machine, dns0);
  append_udp53_packet(capture, trace.day, trace.records[1].machine, dns1);

  wire::PcapReader reader(capture);
  QueryRecord record;
  ASSERT_TRUE(reader.next(record));
  EXPECT_EQ(record, trace.records[0]);
  ASSERT_TRUE(reader.next(record));
  EXPECT_EQ(record, trace.records[1]);
  EXPECT_FALSE(reader.next(record));
  EXPECT_EQ(reader.skipped(), 0u);
  EXPECT_EQ(reader.opt_records(), 1u);
  EXPECT_EQ(reader.opt_skipped(), 1u);
}

// --- parse-error text ------------------------------------------------------
// These cases truncate inside each kind of ByteCursor read and pin the
// exact text a caller sees.

// The text a one-packet capture whose UDP/53 payload is `dns` fails with.
std::string dns_payload_error(const std::vector<unsigned char>& dns) {
  auto capture = pcap_header();
  append_udp53_packet(capture, 20, "192.168.0.1", dns);
  return read_pcap_error(capture);
}

// A response header announcing one question and nothing else.
std::vector<unsigned char> one_question_header() {
  return {0x00, 0x00, 0x81, 0x80, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
}

TEST_F(WireTest, CursorReadsPinTheirTruncationText) {
  // skip: one byte where the 2-byte header id belongs.
  EXPECT_EQ(dns_payload_error({0x00}), "dns header id: truncated (need 2 bytes, have 1)");
  // u16be: the id fits, the flags do not.
  EXPECT_EQ(dns_payload_error({0x00, 0x00, 0x81}),
            "dns header flags: truncated (need 2 bytes, have 1)");
  // u8: the question's first length byte is missing.
  EXPECT_EQ(dns_payload_error(one_question_header()),
            "dns name: truncated (need 1 bytes, have 0)");
  // take: a 5-byte label with 2 bytes left.
  auto label = one_question_header();
  label.insert(label.end(), {0x05, 'a', 'b'});
  EXPECT_EQ(dns_payload_error(label), "dns name label: truncated (need 5 bytes, have 2)");
  // u32le: a packet record header cut inside ts_sec.
  auto capture = pcap_header();
  capture.insert(capture.end(), {0x00, 0x00, 0x00});
  EXPECT_EQ(read_pcap_error(capture), "packet ts_sec: truncated (need 4 bytes, have 3)");
}

TEST_F(WireTest, CompressionPointerReadsPinTheirTruncationText) {
  // The question is a pointer to offset 14, just behind it. u8_at: the
  // label there (1 byte, "a") ends the message, so the next length byte
  // lies past the end.
  auto past_end = one_question_header();
  past_end.insert(past_end.end(), {0xc0, 0x0e, 0x01, 'a'});
  EXPECT_EQ(dns_payload_error(past_end), "dns name: offset past buffer end");
  // view_at: the label there claims 5 bytes with 2 left.
  auto short_label = one_question_header();
  short_label.insert(short_label.end(), {0xc0, 0x0e, 0x05, 'a', 'b'});
  EXPECT_EQ(dns_payload_error(short_label),
            "dns name label: truncated (need 5 bytes at offset 15)");
}

TEST_F(WireTest, PcapReadsSwappedByteOrderHeaders) {
  // A big-endian capture of nothing: swapped magic, swapped linktype.
  std::vector<unsigned char> capture;
  append_be32(capture, 0xa1b2c3d4);  // written BE = swapped on this reader
  append_be32(capture, 0x00020004);
  append_be32(capture, 0);
  append_be32(capture, 0);
  append_be32(capture, 65535);
  append_be32(capture, 1);  // Ethernet, in the capture's byte order
  wire::PcapReader reader(capture);
  QueryRecord record;
  EXPECT_FALSE(reader.next(record));
  EXPECT_EQ(reader.skipped(), 0u);
}

// --- format detection and round trips through TraceSource ------------------

TEST_F(WireTest, DetectFormatSniffsAllFourMagics) {
  const auto trace = wire_trace(3);
  const auto sim = temp_path(".tsv");
  const auto binlog = temp_path(".bin");
  const auto dnstap = temp_path(".detect.dnstap");
  const auto pcap = temp_path(".detect.pcap");
  write_trace(trace, sim);
  write_trace_binary(trace, binlog);
  wire::write_dnstap_trace(trace, dnstap);
  wire::write_pcap_trace(trace, pcap);

  EXPECT_EQ(detect_format(sim), TraceFormat::kSim);
  EXPECT_EQ(detect_format(binlog), TraceFormat::kBinlog);
  EXPECT_EQ(detect_format(dnstap), TraceFormat::kDnstap);
  EXPECT_EQ(detect_format(pcap), TraceFormat::kPcap);

  const auto empty = write_bytes(".empty", {});
  EXPECT_EQ(detect_format(empty), TraceFormat::kSim);
  EXPECT_THROW(detect_format(base_ + ".does-not-exist"), util::ParseError);
}

TEST_F(WireTest, FormatNamesRoundTrip) {
  for (const auto format : {TraceFormat::kSim, TraceFormat::kBinlog,
                            TraceFormat::kDnstap, TraceFormat::kPcap}) {
    EXPECT_EQ(parse_format(format_name(format)), format);
  }
  EXPECT_THROW(parse_format("fstrm"), util::ParseError);
  EXPECT_THROW(parse_format(""), util::ParseError);
}

TEST_F(WireTest, RandomizedSimAndBinlogRoundTripsThroughTraceSource) {
  for (const std::uint64_t seed : {7u, 23u, 101u}) {
    util::Rng rng(seed);
    DayTrace trace;
    trace.day = static_cast<Day>(10 + rng.next_below(30));
    const auto records = 50 + rng.next_below(200);
    for (std::uint64_t i = 0; i < records; ++i) {
      QueryRecord record;
      record.day = trace.day;
      // Free-form machine identifiers: the lossless formats keep them.
      record.machine = "isp" + std::to_string(rng.next_below(4)) + "-host-" +
                       std::to_string(rng.next_below(1000));
      record.qname = "q" + std::to_string(rng.next()) + ".example.net";
      const auto ips = 1 + rng.next_below(3);
      for (std::uint64_t k = 0; k < ips; ++k) {
        record.resolved_ips.push_back(IpV4(static_cast<std::uint32_t>(rng.next())));
      }
      trace.records.push_back(std::move(record));
    }

    const auto sim = temp_path(".rt" + std::to_string(seed) + ".tsv");
    const auto binlog = temp_path(".rt" + std::to_string(seed) + ".bin");
    write_trace(trace, sim);
    write_trace_binary(trace, binlog);

    FileTraceSource sim_source(sim);
    EXPECT_EQ(sim_source.format(), TraceFormat::kSim);
    EXPECT_EQ(drain(sim_source), trace.records) << "sim seed " << seed;
    EXPECT_EQ(sim_source.skipped(), 0u);

    FileTraceSource binlog_source(binlog, TraceFormat::kBinlog);
    EXPECT_EQ(drain(binlog_source), trace.records) << "binlog seed " << seed;
  }
}

TEST_F(WireTest, ConcatenatedBinlogSegmentsStreamAsMultipleDays) {
  auto day3 = wire_trace(10, 3);
  day3.day = 3;
  for (auto& record : day3.records) {
    record.day = 3;
  }
  auto day5 = wire_trace(6, 5);
  day5.day = 5;
  for (auto& record : day5.records) {
    record.day = 5;
  }
  const auto path_a = temp_path(".day3.bin");
  const auto path_b = temp_path(".day5.bin");
  write_trace_binary(day3, path_a);
  write_trace_binary(day5, path_b);
  auto merged = read_bytes(path_a);
  const auto tail = read_bytes(path_b);
  merged.insert(merged.end(), tail.begin(), tail.end());
  const auto multiday = write_bytes(".multiday.bin", merged);

  FileTraceSource source(multiday);
  EXPECT_EQ(source.format(), TraceFormat::kBinlog);
  std::vector<DayTrace> days;
  const auto total = collect_days(source, [&](DayTrace&& day) {
    days.push_back(std::move(day));
  });
  EXPECT_EQ(total, day3.records.size() + day5.records.size());
  ASSERT_EQ(days.size(), 2u);
  EXPECT_EQ(days[0].day, 3);
  EXPECT_EQ(days[0].records, day3.records);
  EXPECT_EQ(days[1].day, 5);
  EXPECT_EQ(days[1].records, day5.records);
}

TEST_F(WireTest, CollectDaysRejectsBackwardDays) {
  DayTrace trace;
  trace.day = 5;
  trace.records.push_back({5, "m1", "a.example.com", {}});
  trace.records.push_back({4, "m2", "b.example.com", {}});
  DayTraceSource source(trace);
  EXPECT_THROW(collect_days(source, [](DayTrace&&) {}), util::ParseError);
}

TEST_F(WireTest, BinlogRejectsForeignMagicMidStream) {
  const auto trace = wire_trace(4);
  const auto path = temp_path(".midmagic.bin");
  write_trace_binary(trace, path);
  auto bytes = read_bytes(path);
  bytes.insert(bytes.end(), {'N', 'O', 'T', 'A', 'S', 'E', 'G', '!'});
  const auto corrupted = write_bytes(".corrupted.bin", bytes);

  FileTraceSource source(corrupted, TraceFormat::kBinlog);
  QueryRecord record;
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    ASSERT_TRUE(source.next(record));
  }
  // The valid leading segment parses; the trailing garbage segment header
  // must throw, not be silently dropped.
  EXPECT_THROW(source.next(record), util::ParseError);
}

}  // namespace
}  // namespace seg::dns
