#include "dns/query_log.h"

#include <fstream>

#include "util/csv.h"
#include "util/require.h"
#include "util/strings.h"

namespace seg::dns {

namespace {

constexpr char kBinaryMagic[] = "SEGTRC1";
constexpr std::size_t kMagicLength = sizeof(kBinaryMagic) - 1;

template <typename T>
void write_le(std::ostream& out, T value) {
  // Serialize explicitly little-endian, byte by byte, so files are
  // portable across hosts.
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    const auto byte = static_cast<unsigned char>(
        (static_cast<std::uint64_t>(value) >> (8 * i)) & 0xff);
    out.put(static_cast<char>(byte));
  }
}

void write_string(std::ostream& out, std::string_view text) {
  util::require(text.size() <= 0xffff, "BinaryTraceWriter: string too long");
  write_le<std::uint16_t>(out, static_cast<std::uint16_t>(text.size()));
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

}  // namespace

void write_trace(const DayTrace& trace, const std::string& path) {
  util::DsvWriter writer(path);
  writer.write_comment("day\tmachine\tqname\tresolved_ips");
  std::vector<std::string> row(4);
  for (const auto& record : trace.records) {
    row[0] = std::to_string(record.day);
    row[1] = record.machine;
    row[2] = record.qname;
    std::vector<std::string> ips;
    ips.reserve(record.resolved_ips.size());
    for (const auto ip : record.resolved_ips) {
      ips.push_back(ip.to_string());
    }
    row[3] = util::join(ips, ",");
    writer.write_row(row);
  }
}

void write_trace_binary(const DayTrace& trace, const std::string& path) {
  BinaryTraceWriter writer(path, trace.day, trace.records.size());
  for (const auto& record : trace.records) {
    writer.add(record.machine, record.qname, record.resolved_ips);
  }
  writer.finish();
}

BinaryTraceWriter::BinaryTraceWriter(const std::string& path, Day day, std::uint64_t count)
    : out_(path, std::ios::binary), expected_(count) {
  util::require_data(out_.is_open(), "BinaryTraceWriter: cannot create '" + path + "'");
  out_.write(kBinaryMagic, static_cast<std::streamsize>(kMagicLength));
  write_le<std::int32_t>(out_, day);
  write_le<std::uint64_t>(out_, count);
}

BinaryTraceWriter::~BinaryTraceWriter() {
  try {
    finish();
  } catch (...) {  // destructors must not throw; call finish() to observe
  }
}

void BinaryTraceWriter::add(std::string_view machine, std::string_view qname,
                            std::span<const IpV4> resolved_ips) {
  util::require(written_ < expected_, "BinaryTraceWriter: more records than declared");
  write_string(out_, machine);
  write_string(out_, qname);
  util::require(resolved_ips.size() <= 0xff,
                "BinaryTraceWriter: too many resolved IPs in one record");
  write_le<std::uint8_t>(out_, static_cast<std::uint8_t>(resolved_ips.size()));
  for (const auto ip : resolved_ips) {
    write_le<std::uint32_t>(out_, ip.value());
  }
  ++written_;
}

void BinaryTraceWriter::finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  util::require(written_ == expected_,
                "BinaryTraceWriter: record count mismatch with declared header count");
  out_.flush();
  util::require_data(static_cast<bool>(out_), "BinaryTraceWriter: write failed");
  out_.close();
}

}  // namespace seg::dns
