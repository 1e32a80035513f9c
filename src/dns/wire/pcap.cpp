#include "dns/wire/pcap.h"

#include <fstream>

#include "dns/wire/bytes.h"
#include "dns/wire/dns_message.h"
#include "dns/wire/dnstap.h"
#include "util/require.h"

namespace seg::dns::wire {

namespace {

constexpr std::uint32_t kMagicMicros = 0xa1b2c3d4;
constexpr std::uint32_t kMagicNanos = 0xa1b23c4d;
constexpr std::uint32_t kMagicMicrosSwapped = 0xd4c3b2a1;
constexpr std::uint32_t kMagicNanosSwapped = 0x4d3cb2a1;

constexpr std::uint32_t kLinktypeEthernet = 1;
constexpr std::uint32_t kLinktypeRaw = 101;

constexpr std::uint16_t kEthertypeIpv4 = 0x0800;
constexpr std::uint16_t kEthertypeVlan = 0x8100;

constexpr std::int64_t kSecondsPerDay = 86400;

std::uint32_t read_u32(ByteCursor& cursor, bool swapped, std::string_view what) {
  return swapped ? cursor.u32be(what) : cursor.u32le(what);
}

// Strips link/IP/UDP headers from one captured packet, returning the DNS
// payload of a source-port-53 UDP datagram plus the destination (client)
// address — or an empty span when the packet is well-formed but not DNS.
struct Datagram {
  std::span<const unsigned char> dns;
  IpV4 client;
};

Datagram strip_headers(std::span<const unsigned char> packet, std::uint32_t linktype) {
  Datagram out;
  ByteCursor cursor(packet);
  if (linktype == kLinktypeEthernet) {
    cursor.skip(12, "ethernet addresses");
    auto ethertype = cursor.u16be("ethertype");
    if (ethertype == kEthertypeVlan) {
      cursor.skip(2, "vlan tag");
      ethertype = cursor.u16be("ethertype");
    }
    if (ethertype != kEthertypeIpv4) {
      return out;
    }
  }
  // IPv4 header.
  const auto version_ihl = cursor.u8("ip version/ihl");
  if ((version_ihl >> 4) != 4) {
    return out;
  }
  const std::size_t ihl = static_cast<std::size_t>(version_ihl & 0x0f) * 4;
  util::require_data(ihl >= 20, "pcap: ipv4 header length below 20 bytes");
  cursor.skip(1, "ip tos");
  const auto total_length = cursor.u16be("ip total length");
  util::require_data(total_length >= ihl, "pcap: ipv4 total length below header length");
  cursor.skip(2, "ip id");
  const auto flags_frag = cursor.u16be("ip flags/fragment offset");
  if ((flags_frag & 0x1fff) != 0 || (flags_frag & 0x2000) != 0) {
    return out;  // fragmented datagram: a resolver tap reassembles upstream
  }
  cursor.skip(1, "ip ttl");
  const auto protocol = cursor.u8("ip protocol");
  cursor.skip(2, "ip checksum");
  cursor.skip(4, "ip source address");
  const auto dst = cursor.take(4, "ip destination address");
  if (ihl > 20) {
    cursor.skip(ihl - 20, "ip options");
  }
  if (protocol != 17) {  // UDP
    return out;
  }
  const auto src_port = cursor.u16be("udp source port");
  cursor.skip(2, "udp destination port");
  const auto udp_length = cursor.u16be("udp length");
  cursor.skip(2, "udp checksum");
  if (src_port != 53) {
    return out;  // responses flow resolver -> client from port 53
  }
  util::require_data(udp_length >= 8, "pcap: udp length below header size");
  const std::size_t payload = udp_length - 8;
  util::require_data(payload <= cursor.remaining(), "pcap: udp payload truncated");
  out.dns = cursor.take(payload, "udp payload");
  out.client = IpV4::from_octets(dst[0], dst[1], dst[2], dst[3]);
  return out;
}

}  // namespace

PcapReader::PcapReader(std::span<const unsigned char> capture) {
  data_ = capture;
  ByteCursor cursor(data_);
  const auto magic = cursor.u32le("pcap magic");
  switch (magic) {
    case kMagicMicros:
    case kMagicNanos:
      swapped_ = false;
      break;
    case kMagicMicrosSwapped:
    case kMagicNanosSwapped:
      swapped_ = true;
      break;
    default:
      throw util::ParseError("pcap: unrecognized magic number");
  }
  cursor.skip(4, "pcap version");        // major/minor
  cursor.skip(8, "pcap thiszone/sigfigs");
  cursor.skip(4, "pcap snaplen");
  linktype_ = read_u32(cursor, swapped_, "pcap linktype");
  util::require_data(linktype_ == kLinktypeEthernet || linktype_ == kLinktypeRaw,
                     "pcap: unsupported link type " + std::to_string(linktype_));
  pos_ = cursor.pos();
}

bool PcapReader::next(QueryRecord& record) {
  while (true) {
    ByteCursor cursor(data_.subspan(pos_));
    if (cursor.done()) {
      return false;
    }
    const auto ts_sec = read_u32(cursor, swapped_, "packet ts_sec");
    cursor.skip(4, "packet ts_frac");
    const auto incl_len = read_u32(cursor, swapped_, "packet incl_len");
    const auto orig_len = read_u32(cursor, swapped_, "packet orig_len");
    if (incl_len > kMaxPcapPacketBytes) [[unlikely]] {
      util::throw_parse_error({"pcap: oversized packet record (", incl_len, " bytes)"});
    }
    const auto packet = cursor.take(incl_len, "packet data");
    pos_ += cursor.pos();
    if (incl_len < orig_len) {
      ++skipped_;  // snaplen-truncated packet: cannot parse reliably
      continue;
    }
    const auto datagram = strip_headers(packet, linktype_);
    if (datagram.dns.empty()) {
      ++skipped_;
      continue;
    }
    summarize(datagram.dns, summary_, name_scratch_);
    opt_records_ += summary_.opt_records;
    opt_skipped_ += summary_.opt_skipped;
    if (!summary_.is_response || summary_.rcode != 0 || summary_.qname.empty() ||
        summary_.a_records.empty()) {
      ++skipped_;
      continue;
    }
    record.day = static_cast<Day>(static_cast<std::int64_t>(ts_sec) / kSecondsPerDay);
    record.machine = datagram.client.to_string();
    record.qname = summary_.qname;
    record.resolved_ips = summary_.a_records;
    return true;
  }
}

void write_pcap_trace(const DayTrace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  util::require_data(out.is_open(), "write_pcap_trace: cannot create '" + path + "'");
  std::vector<unsigned char> buf;
  const auto push32le = [&buf](std::uint32_t value) {
    buf.push_back(static_cast<unsigned char>(value & 0xff));
    buf.push_back(static_cast<unsigned char>((value >> 8) & 0xff));
    buf.push_back(static_cast<unsigned char>((value >> 16) & 0xff));
    buf.push_back(static_cast<unsigned char>(value >> 24));
  };

  // Global header: microsecond magic, little-endian byte order.
  push32le(kMagicMicros);
  push32le(0x00040002);  // major=2, minor=4 as two LE u16s
  push32le(0);           // thiszone
  push32le(0);           // sigfigs
  push32le(kMaxPcapPacketBytes);
  push32le(kLinktypeEthernet);

  std::uint16_t ip_id = 0;
  for (const auto& record : trace.records) {
    const auto client = machine_address(record.machine);
    const auto dns = encode_response(record.qname, record.resolved_ips);

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

    // Ethernet: synthetic addresses, IPv4 ethertype.
    for (int i = 0; i < 12; ++i) {
      p8(static_cast<std::uint8_t>(i < 6 ? 0x02 : 0x04));
    }
    p16(kEthertypeIpv4);

    // IPv4: resolver 10.0.0.53 -> client, UDP, no fragmentation.
    const std::uint16_t udp_len = static_cast<std::uint16_t>(8 + dns.size());
    p8(0x45);  // version 4, ihl 5
    p8(0);     // tos
    p16(static_cast<std::uint16_t>(20 + udp_len));
    p16(ip_id++);
    p16(0);    // flags/fragment
    p8(64);    // ttl
    p8(17);    // protocol UDP
    p16(0);    // checksum: readers here never verify it
    p32(IpV4::from_octets(10, 0, 0, 53).value());
    p32(client.value());

    // UDP: port 53 -> ephemeral.
    p16(53);
    p16(40000);
    p16(udp_len);
    p16(0);  // checksum optional over IPv4
    packet.insert(packet.end(), dns.begin(), dns.end());

    util::require(packet.size() <= kMaxPcapPacketBytes, "write_pcap_trace: packet too large");
    push32le(static_cast<std::uint32_t>(static_cast<std::int64_t>(record.day) *
                                        kSecondsPerDay));
    push32le(0);  // microseconds
    push32le(static_cast<std::uint32_t>(packet.size()));
    push32le(static_cast<std::uint32_t>(packet.size()));
    buf.insert(buf.end(), packet.begin(), packet.end());
  }

  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
  util::close_output(out, path);
}

}  // namespace seg::dns::wire
