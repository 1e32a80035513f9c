#include "dns/wire/dns_message.h"

#include "dns/wire/bytes.h"
#include "util/require.h"

namespace seg::dns::wire {

namespace {

constexpr std::size_t kMaxNameBytes = 255;  // RFC 1035 §2.3.4
constexpr std::size_t kMaxLabelBytes = 63;
constexpr std::size_t kMaxPointerJumps = 32;  // far above any legal chain
constexpr std::uint16_t kOptRrType = 41;      // EDNS0 OPT pseudo-RR (RFC 6891)

// Decodes a (possibly compressed) domain name starting at the cursor,
// appending dotted labels to `out`. The cursor ends just past the name's
// in-place bytes (a pointer terminates the in-place encoding).
void read_name(ByteCursor& cursor, std::string& out) {
  out.clear();
  std::size_t jumps = 0;
  // After the first compression pointer we walk the message at `offset`
  // through the cursor's bounds-checked random access (u8_at / view_at) —
  // the cursor's own position already advanced past the 2-byte pointer and
  // must not move again.
  std::size_t offset = 0;
  bool jumped = false;
  std::size_t name_bytes = 0;
  while (true) {
    const std::uint8_t len =
        jumped ? cursor.u8_at(offset++, "dns name") : cursor.u8("dns name");
    if ((len & 0xc0) == 0xc0) {
      // Compression pointer: 14-bit offset into the message.
      const std::uint8_t low = jumped ? cursor.u8_at(offset++, "dns name pointer")
                                      : cursor.u8("dns name pointer");
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3f) << 8) | low;
      util::require_data(target < cursor.size(),
                         "dns name: compression pointer out of range");
      util::require_data(++jumps <= kMaxPointerJumps, "dns name: compression pointer loop");
      offset = target;
      jumped = true;
      continue;
    }
    util::require_data((len & 0xc0) == 0, "dns name: reserved label type");
    if (len == 0) {
      return;  // root: name complete
    }
    util::require_data(len <= kMaxLabelBytes, "dns name: label longer than 63 bytes");
    name_bytes += len + 1;
    util::require_data(name_bytes <= kMaxNameBytes, "dns name: name longer than 255 bytes");
    std::span<const unsigned char> label;
    if (!jumped) {
      label = cursor.take(len, "dns name label");
    } else {
      label = cursor.view_at(offset, len, "dns name label");
      offset += len;
    }
    if (!out.empty()) {
      out.push_back('.');
    }
    out.append(reinterpret_cast<const char*>(label.data()), label.size());
  }
}

// Walks one resource record, collecting A/IN rdata into `summary`.
void read_resource_record(ByteCursor& cursor, std::string& scratch_name,
                          DnsSummary* summary) {
  read_name(cursor, scratch_name);
  const auto rr_type = cursor.u16be("rr type");
  const auto rr_class = cursor.u16be("rr class");
  cursor.skip(4, "rr ttl");
  const auto rdlength = cursor.u16be("rr rdlength");
  const auto rdata = cursor.take(rdlength, "rr rdata");
  if (summary != nullptr && rr_type == 1 && rr_class == 1) {  // A, IN
    util::require_data(rdlength == 4, "dns A record: rdlength != 4");
    summary->a_records.push_back(
        IpV4::from_octets(rdata[0], rdata[1], rdata[2], rdata[3]));
  }
}

}  // namespace

void summarize(std::span<const unsigned char> message, DnsSummary& summary,
               std::string& name_scratch) {
  ByteCursor cursor(message);
  summary.qname.clear();
  summary.a_records.clear();
  summary.opt_records = 0;
  summary.opt_skipped = 0;
  cursor.skip(2, "dns header id");
  const auto flags = cursor.u16be("dns header flags");
  summary.is_response = (flags & 0x8000) != 0;
  summary.rcode = static_cast<std::uint8_t>(flags & 0x000f);
  const auto qdcount = cursor.u16be("dns header qdcount");
  const auto ancount = cursor.u16be("dns header ancount");
  const auto nscount = cursor.u16be("dns header nscount");
  const auto arcount = cursor.u16be("dns header arcount");

  for (std::uint16_t q = 0; q < qdcount; ++q) {
    read_name(cursor, q == 0 ? summary.qname : name_scratch);
    cursor.skip(4, "dns question type/class");
  }
  for (std::uint16_t a = 0; a < ancount; ++a) {
    read_resource_record(cursor, name_scratch, &summary);
  }
  // Authority must still parse — a capture that lies about its counts or
  // truncates mid-record is rejected, not silently accepted.
  for (std::uint16_t r = 0; r < nscount; ++r) {
    read_resource_record(cursor, name_scratch, nullptr);
  }
  for (std::uint16_t r = 0; r < arcount; ++r) {
    // EDNS0 OPT pseudo-RRs (RFC 6891, type 41) carry resolver capability
    // bits Segugio never reads, and real captures routinely truncate them
    // (snap length). They are skipped leniently and counted; a malformed
    // OPT ends the additional section instead of rejecting the message.
    // Every other additional record stays strict.
    read_name(cursor, name_scratch);
    const auto rr_type = cursor.u16be("rr type");
    if (rr_type == kOptRrType) {
      if (cursor.remaining() < 8) {  // class(2) + ttl(4) + rdlength(2)
        ++summary.opt_skipped;
        break;
      }
      cursor.skip(2, "opt udp size");
      cursor.skip(4, "opt extended rcode/flags");
      const auto rdlength = cursor.u16be("opt rdlength");
      if (rdlength > cursor.remaining()) {
        ++summary.opt_skipped;
        break;
      }
      cursor.skip(rdlength, "opt rdata");
      ++summary.opt_records;
      continue;
    }
    const auto rr_class = cursor.u16be("rr class");
    (void)rr_class;
    cursor.skip(4, "rr ttl");
    const auto rdlength = cursor.u16be("rr rdlength");
    cursor.skip(rdlength, "rr rdata");
  }
}

std::vector<unsigned char> encode_response(std::string_view qname,
                                           std::span<const IpV4> a_records,
                                           std::uint16_t id) {
  util::require(a_records.size() <= 0xffff, "encode_response: too many answers");
  std::vector<unsigned char> out;
  const auto push16 = [&out](std::uint16_t value) {
    out.push_back(static_cast<unsigned char>(value >> 8));
    out.push_back(static_cast<unsigned char>(value & 0xff));
  };
  const auto push_name = [&out, qname] {
    std::size_t start = 0;
    while (start <= qname.size()) {
      const auto dot = qname.find('.', start);
      const auto end = dot == std::string_view::npos ? qname.size() : dot;
      const auto label = qname.substr(start, end - start);
      util::require(label.size() <= kMaxLabelBytes,
                    "encode_response: label longer than 63 bytes");
      if (!label.empty()) {
        out.push_back(static_cast<unsigned char>(label.size()));
        out.insert(out.end(), label.begin(), label.end());
      }
      if (dot == std::string_view::npos) {
        break;
      }
      start = dot + 1;
    }
    out.push_back(0);  // root
  };

  push16(id);
  push16(0x8180);  // QR=1, RD=1, RA=1, NOERROR
  push16(1);       // qdcount
  push16(static_cast<std::uint16_t>(a_records.size()));
  push16(0);  // nscount
  push16(0);  // arcount
  push_name();
  push16(1);  // QTYPE A
  push16(1);  // QCLASS IN
  for (const auto ip : a_records) {
    push_name();
    push16(1);  // A
    push16(1);  // IN
    push16(0);  // TTL high
    push16(60); // TTL low: 60s
    push16(4);  // rdlength
    const auto value = ip.value();
    out.push_back(static_cast<unsigned char>(value >> 24));
    out.push_back(static_cast<unsigned char>((value >> 16) & 0xff));
    out.push_back(static_cast<unsigned char>((value >> 8) & 0xff));
    out.push_back(static_cast<unsigned char>(value & 0xff));
  }
  return out;
}

}  // namespace seg::dns::wire
