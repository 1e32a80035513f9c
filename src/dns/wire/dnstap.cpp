#include "dns/wire/dnstap.h"

#include <fstream>

#include "dns/wire/bytes.h"
#include "dns/wire/dns_message.h"
#include "util/hash.h"
#include "util/require.h"

namespace seg::dns::wire {

namespace {

// frame-streams control frame types (fstrm/control.h).
constexpr std::uint32_t kControlStart = 0x02;
constexpr std::uint32_t kControlStop = 0x03;
constexpr std::uint32_t kControlFieldContentType = 0x01;

// dnstap.proto field numbers.
constexpr std::uint32_t kDnstapTypeField = 15;     // varint, MESSAGE = 1
constexpr std::uint32_t kDnstapMessageField = 14;  // embedded Message
constexpr std::uint32_t kMsgTypeField = 1;         // varint, CLIENT_RESPONSE = 6
constexpr std::uint32_t kMsgSocketFamilyField = 2;  // varint, INET = 1
constexpr std::uint32_t kMsgQueryAddressField = 4;  // bytes (client address)
constexpr std::uint32_t kMsgResponseTimeSecField = 11;  // varint
constexpr std::uint32_t kMsgResponseMessageField = 13;  // bytes (DNS wire)

constexpr std::uint64_t kDnstapTypeMessage = 1;
constexpr std::uint64_t kMsgTypeClientResponse = 6;
constexpr std::uint64_t kSocketFamilyInet = 1;

constexpr std::int64_t kSecondsPerDay = 86400;

// --- protobuf wire helpers -------------------------------------------------

std::uint64_t read_varint(ByteCursor& cursor) {
  std::uint64_t value = 0;
  for (std::size_t shift = 0; shift < 64; shift += 7) {
    const auto byte = cursor.u8("protobuf varint");
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      return value;
    }
  }
  throw util::ParseError("protobuf varint: longer than 10 bytes");
}

struct ProtoField {
  std::uint32_t number = 0;
  std::uint64_t varint = 0;                  // wire type 0
  std::span<const unsigned char> bytes;      // wire type 2
  bool is_varint = false;
  bool is_bytes = false;
};

// Reads one field, skipping fixed32/fixed64 payloads it does not model.
ProtoField read_field(ByteCursor& cursor) {
  ProtoField field;
  const auto key = read_varint(cursor);
  field.number = static_cast<std::uint32_t>(key >> 3);
  util::require_data(field.number != 0, "protobuf: field number 0");
  switch (key & 0x7) {
    case 0:
      field.varint = read_varint(cursor);
      field.is_varint = true;
      break;
    case 1:
      cursor.skip(8, "protobuf fixed64");
      break;
    case 2: {
      const auto length = read_varint(cursor);
      util::require_data(length <= cursor.remaining(),
                         "protobuf length-delimited field: truncated");
      field.bytes = cursor.take(static_cast<std::size_t>(length), "protobuf bytes");
      field.is_bytes = true;
      break;
    }
    case 5:
      cursor.skip(4, "protobuf fixed32");
      break;
    default:
      throw util::ParseError("protobuf: unsupported wire type " +
                             std::to_string(key & 0x7));
  }
  return field;
}

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

void append_bytes_field(std::vector<unsigned char>& out, std::uint32_t field,
                        std::span<const unsigned char> bytes) {
  append_key(out, field, 2);
  append_varint(out, bytes.size());
  out.insert(out.end(), bytes.begin(), bytes.end());
}

// --- decoded dnstap message ------------------------------------------------

struct DecodedMessage {
  std::uint64_t type = 0;
  std::uint64_t socket_family = 0;
  std::uint64_t response_time_sec = 0;
  std::span<const unsigned char> query_address;
  std::span<const unsigned char> response_message;
};

DecodedMessage decode_message(std::span<const unsigned char> payload) {
  DecodedMessage message;
  ByteCursor cursor(payload);
  while (!cursor.done()) {
    const auto field = read_field(cursor);
    if (field.is_varint && field.number == kMsgTypeField) {
      message.type = field.varint;
    } else if (field.is_varint && field.number == kMsgSocketFamilyField) {
      message.socket_family = field.varint;
    } else if (field.is_varint && field.number == kMsgResponseTimeSecField) {
      message.response_time_sec = field.varint;
    } else if (field.is_bytes && field.number == kMsgQueryAddressField) {
      message.query_address = field.bytes;
    } else if (field.is_bytes && field.number == kMsgResponseMessageField) {
      message.response_message = field.bytes;
    }
  }
  return message;
}

std::string address_to_string(std::span<const unsigned char> address) {
  return IpV4::from_octets(address[0], address[1], address[2], address[3]).to_string();
}

}  // namespace

DnstapReader::DnstapReader(std::span<const unsigned char> capture) {
  data_ = capture;
  ByteCursor cursor(data_);
  const auto escape = cursor.u32be("frame-streams escape");
  util::require_data(escape == 0, "dnstap: stream does not start with a control frame");
  const auto control_len = cursor.u32be("frame-streams control length");
  util::require_data(control_len >= 4 && control_len <= kMaxDnstapFrameBytes,
                     "dnstap: implausible control frame length");
  ByteCursor control(cursor.take(control_len, "frame-streams control frame"));
  const auto control_type = control.u32be("control frame type");
  util::require_data(control_type == kControlStart,
                     "dnstap: first control frame is not START");
  while (!control.done()) {
    const auto field_type = control.u32be("control field type");
    const auto field_len = control.u32be("control field length");
    const auto field = control.take(field_len, "control field payload");
    if (field_type == kControlFieldContentType) {
      const std::string_view content(reinterpret_cast<const char*>(field.data()),
                                     field.size());
      util::require_data(content == kDnstapContentType,
                         "dnstap: foreign content type '" + std::string(content) + "'");
    }
  }
  pos_ = cursor.pos();
}

bool DnstapReader::next(QueryRecord& record) {
  while (!stopped_) {
    ByteCursor cursor(data_.subspan(pos_));
    if (cursor.done()) {
      return false;  // clean EOF without STOP: accepted (live taps get cut)
    }
    const auto length = cursor.u32be("frame length");
    if (length == 0) {
      // Control frame: STOP ends the stream; anything else mid-stream is
      // tolerated if well-formed (fstrm READY/ACCEPT never hit files).
      const auto control_len = cursor.u32be("control frame length");
      util::require_data(control_len >= 4 && control_len <= kMaxDnstapFrameBytes,
                         "dnstap: implausible control frame length");
      ByteCursor control(cursor.take(control_len, "control frame"));
      const auto control_type = control.u32be("control frame type");
      pos_ += cursor.pos();
      if (control_type == kControlStop) {
        stopped_ = true;
        return false;
      }
      continue;
    }
    if (length > kMaxDnstapFrameBytes) [[unlikely]] {
      util::throw_parse_error({"dnstap: oversized frame (", length, " bytes)"});
    }
    const auto frame = cursor.take(length, "dnstap data frame");
    pos_ += cursor.pos();

    // Decode the Dnstap envelope, then the embedded Message.
    std::span<const unsigned char> message_payload;
    std::uint64_t dnstap_type = kDnstapTypeMessage;
    ByteCursor envelope(frame);
    while (!envelope.done()) {
      const auto field = read_field(envelope);
      if (field.is_varint && field.number == kDnstapTypeField) {
        dnstap_type = field.varint;
      } else if (field.is_bytes && field.number == kDnstapMessageField) {
        message_payload = field.bytes;
      }
    }
    if (dnstap_type != kDnstapTypeMessage || message_payload.empty()) {
      ++skipped_;
      continue;
    }
    const auto message = decode_message(message_payload);
    if (message.type != kMsgTypeClientResponse ||
        message.socket_family != kSocketFamilyInet ||
        message.query_address.size() != 4 || message.response_message.empty()) {
      ++skipped_;
      continue;
    }
    summarize(message.response_message, summary_, name_scratch_);
    if (!summary_.is_response || summary_.rcode != 0 || summary_.qname.empty() ||
        summary_.a_records.empty()) {
      ++skipped_;
      continue;
    }
    record.day = static_cast<Day>(static_cast<std::int64_t>(message.response_time_sec) /
                                  kSecondsPerDay);
    record.machine = address_to_string(message.query_address);
    record.qname = summary_.qname;
    record.resolved_ips = summary_.a_records;
    return true;
  }
  return false;
}

IpV4 machine_address(std::string_view machine) {
  // Dotted quads pass through so live-shaped identifiers round-trip.
  bool looks_numeric = !machine.empty();
  for (const char c : machine) {
    if (c != '.' && (c < '0' || c > '9')) {
      looks_numeric = false;
      break;
    }
  }
  if (looks_numeric) {
    try {
      return IpV4::parse(machine);
    } catch (const util::ParseError&) {
      // fall through to the hashed mapping
    }
  }
  const auto hash = util::fnv1a64(machine);
  return IpV4::from_octets(10, static_cast<std::uint8_t>(hash >> 16),
                           static_cast<std::uint8_t>(hash >> 8),
                           static_cast<std::uint8_t>(hash));
}

void write_dnstap_trace(const DayTrace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  util::require_data(out.is_open(), "write_dnstap_trace: cannot create '" + path + "'");
  const auto write_u32be = [&out](std::uint32_t value) {
    const unsigned char bytes[4] = {static_cast<unsigned char>(value >> 24),
                                    static_cast<unsigned char>((value >> 16) & 0xff),
                                    static_cast<unsigned char>((value >> 8) & 0xff),
                                    static_cast<unsigned char>(value & 0xff)};
    out.write(reinterpret_cast<const char*>(bytes), 4);
  };

  // START control frame with the dnstap content type.
  const std::string_view content = kDnstapContentType;
  write_u32be(0);
  write_u32be(static_cast<std::uint32_t>(4 + 4 + 4 + content.size()));
  write_u32be(kControlStart);
  write_u32be(kControlFieldContentType);
  write_u32be(static_cast<std::uint32_t>(content.size()));
  out.write(content.data(), static_cast<std::streamsize>(content.size()));

  std::vector<unsigned char> message;
  std::vector<unsigned char> envelope;
  for (const auto& record : trace.records) {
    const auto address = machine_address(record.machine);
    const auto payload = encode_response(record.qname, record.resolved_ips);

    message.clear();
    append_key(message, kMsgTypeField, 0);
    append_varint(message, kMsgTypeClientResponse);
    append_key(message, kMsgSocketFamilyField, 0);
    append_varint(message, kSocketFamilyInet);
    const auto value = address.value();
    const unsigned char addr_bytes[4] = {static_cast<unsigned char>(value >> 24),
                                         static_cast<unsigned char>((value >> 16) & 0xff),
                                         static_cast<unsigned char>((value >> 8) & 0xff),
                                         static_cast<unsigned char>(value & 0xff)};
    append_bytes_field(message, kMsgQueryAddressField,
                       std::span<const unsigned char>(addr_bytes, 4));
    append_key(message, kMsgResponseTimeSecField, 0);
    append_varint(message,
                  static_cast<std::uint64_t>(static_cast<std::int64_t>(record.day) *
                                             kSecondsPerDay));
    append_bytes_field(message, kMsgResponseMessageField, payload);

    envelope.clear();
    append_key(envelope, kDnstapTypeField, 0);
    append_varint(envelope, kDnstapTypeMessage);
    append_bytes_field(envelope, kDnstapMessageField, message);

    write_u32be(static_cast<std::uint32_t>(envelope.size()));
    out.write(reinterpret_cast<const char*>(envelope.data()),
              static_cast<std::streamsize>(envelope.size()));
  }

  // STOP control frame.
  write_u32be(0);
  write_u32be(4);
  write_u32be(kControlStop);
  util::close_output(out, path);
}

}  // namespace seg::dns::wire
