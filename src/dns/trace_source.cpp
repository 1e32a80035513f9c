#include "dns/trace_source.h"

#include <cstring>
#include <fstream>

#include "dns/wire/bytes.h"
#include "dns/wire/dnstap.h"
#include "dns/wire/pcap.h"
#include "util/csv.h"
#include "util/mmap_file.h"
#include "util/require.h"
#include "util/strings.h"

namespace seg::dns {

namespace {

constexpr std::string_view kBinlogMagic = "SEGTRC1";

// Incremental SEGTRC1 reader over a mapped file. A multi-day binlog is a
// plain concatenation of single-day SEGTRC1 segments (cat day1.bin
// day2.bin ...); each segment header re-arms the day and record count.
class BinlogCursor {
 public:
  explicit BinlogCursor(std::span<const unsigned char> data) : cursor_(data) {
    if (!cursor_.done()) {
      read_segment_header();
    }
  }

  bool next(QueryRecord& record) {
    while (remaining_ == 0) {
      if (cursor_.done()) {
        return false;
      }
      read_segment_header();
    }
    --remaining_;
    record.day = day_;
    read_string(record.machine, "binlog machine");
    read_string(record.qname, "binlog qname");
    const auto ip_count = cursor_.u8("binlog ip count");
    record.resolved_ips.clear();
    record.resolved_ips.reserve(ip_count);
    for (std::uint8_t k = 0; k < ip_count; ++k) {
      record.resolved_ips.push_back(IpV4(cursor_.u32le("binlog ip")));
    }
    return true;
  }

 private:
  void read_segment_header() {
    const auto magic = cursor_.take(kBinlogMagic.size(), "binlog magic");
    util::require_data(
        std::memcmp(magic.data(), kBinlogMagic.data(), kBinlogMagic.size()) == 0,
        "binlog: bad magic (not a SEGTRC1 segment)");
    day_ = static_cast<Day>(static_cast<std::int32_t>(cursor_.u32le("binlog day")));
    const std::uint64_t low = cursor_.u32le("binlog count");
    const std::uint64_t high = cursor_.u32le("binlog count");
    remaining_ = low | (high << 32);
  }

  void read_string(std::string& out, std::string_view what) {
    const auto length = cursor_.u16le(what);
    const auto bytes = cursor_.take(length, what);
    out.assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  }

  wire::ByteCursor cursor_;
  Day day_ = 0;
  std::uint64_t remaining_ = 0;
};

// Streaming sim-TSV reader. It accepts multiple days in one file — a
// streamed deployment crosses day boundaries — but the pipeline still
// requires them to be non-decreasing.
class SimCursor {
 public:
  explicit SimCursor(const std::string& path) : reader_(path) {}

  bool next(QueryRecord& record) {
    std::vector<std::string_view> fields;
    if (!reader_.next(fields)) {
      return false;
    }
    if (fields.size() != 4) [[unlikely]] {
      util::throw_parse_error(
          {"sim trace: expected 4 fields at line ", reader_.line_number()});
    }
    record.day = static_cast<Day>(util::parse_u64(fields[0]));
    record.machine = std::string(fields[1]);
    record.qname = std::string(fields[2]);
    record.resolved_ips.clear();
    for (const auto ip_text : util::split_skip_empty(fields[3], ',')) {
      record.resolved_ips.push_back(IpV4::parse(ip_text));
    }
    return true;
  }

 private:
  util::DsvReader reader_;
};

}  // namespace

std::string_view format_name(TraceFormat format) {
  switch (format) {
    case TraceFormat::kSim:
      return "sim";
    case TraceFormat::kBinlog:
      return "binlog";
    case TraceFormat::kDnstap:
      return "dnstap";
    case TraceFormat::kPcap:
      return "pcap";
  }
  return "sim";
}

TraceFormat parse_format(std::string_view name) {
  if (name == "sim") {
    return TraceFormat::kSim;
  }
  if (name == "binlog") {
    return TraceFormat::kBinlog;
  }
  if (name == "dnstap") {
    return TraceFormat::kDnstap;
  }
  if (name == "pcap") {
    return TraceFormat::kPcap;
  }
  throw util::ParseError("unknown trace format '" + std::string(name) +
                         "' (expected sim|binlog|dnstap|pcap)");
}

TraceFormat detect_format(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  util::require_data(in.is_open(), "detect_format: cannot open '" + path + "'");
  unsigned char head[8] = {};
  in.read(reinterpret_cast<char*>(head), sizeof(head));
  const auto got = static_cast<std::size_t>(in.gcount());
  if (got >= kBinlogMagic.size() &&
      std::memcmp(head, kBinlogMagic.data(), kBinlogMagic.size()) == 0) {
    return TraceFormat::kBinlog;
  }
  if (got >= 4) {
    const std::uint32_t magic_le = std::uint32_t{head[0]} | (std::uint32_t{head[1]} << 8) |
                                   (std::uint32_t{head[2]} << 16) |
                                   (std::uint32_t{head[3]} << 24);
    if (magic_le == 0xa1b2c3d4 || magic_le == 0xa1b23c4d || magic_le == 0xd4c3b2a1 ||
        magic_le == 0x4d3cb2a1) {
      return TraceFormat::kPcap;
    }
    if (magic_le == 0) {
      return TraceFormat::kDnstap;  // frame-streams control escape
    }
  }
  return TraceFormat::kSim;
}

struct FileTraceSource::Impl {
  util::MmapFile map;
  std::unique_ptr<BinlogCursor> binlog;
  std::unique_ptr<wire::DnstapReader> dnstap;
  std::unique_ptr<wire::PcapReader> pcap;
  std::unique_ptr<SimCursor> sim;
};

FileTraceSource::FileTraceSource(const std::string& path)
    : FileTraceSource(path, detect_format(path)) {}

FileTraceSource::FileTraceSource(const std::string& path, TraceFormat format)
    : format_(format), impl_(std::make_unique<Impl>()) {
  if (format == TraceFormat::kSim) {
    impl_->sim = std::make_unique<SimCursor>(path);
    return;
  }
  impl_->map = util::MmapFile(path);
  const std::span<const unsigned char> data(impl_->map.data(), impl_->map.size());
  switch (format) {
    case TraceFormat::kBinlog:
      impl_->binlog = std::make_unique<BinlogCursor>(data);
      break;
    case TraceFormat::kDnstap:
      impl_->dnstap = std::make_unique<wire::DnstapReader>(data);
      break;
    case TraceFormat::kPcap:
      impl_->pcap = std::make_unique<wire::PcapReader>(data);
      break;
    case TraceFormat::kSim:
      break;  // handled above
  }
}

FileTraceSource::~FileTraceSource() = default;

bool FileTraceSource::next(QueryRecord& record) {
  switch (format_) {
    case TraceFormat::kSim:
      return impl_->sim->next(record);
    case TraceFormat::kBinlog:
      return impl_->binlog->next(record);
    case TraceFormat::kDnstap:
      return impl_->dnstap->next(record);
    case TraceFormat::kPcap:
      return impl_->pcap->next(record);
  }
  return false;
}

std::uint64_t FileTraceSource::skipped() const {
  if (impl_->dnstap) {
    return impl_->dnstap->skipped();
  }
  if (impl_->pcap) {
    return impl_->pcap->skipped();
  }
  return 0;
}

std::uint64_t collect_days(TraceSource& source,
                           const std::function<void(DayTrace&&)>& on_day) {
  std::uint64_t total = 0;
  DayTrace current;
  bool open = false;
  QueryRecord record;
  while (source.next(record)) {
    ++total;
    if (open && record.day != current.day) {
      util::require_data(record.day > current.day,
                         "trace stream: day went backwards (" +
                             std::to_string(record.day) + " after " +
                             std::to_string(current.day) + ")");
      on_day(std::move(current));
      current = DayTrace{};
      open = false;
    }
    if (!open) {
      current.day = record.day;
      open = true;
    }
    current.records.push_back(record);
  }
  if (open) {
    on_day(std::move(current));
  }
  return total;
}

}  // namespace seg::dns
