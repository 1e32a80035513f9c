// TraceSource: the pull-based record stream every ingestion path speaks.
//
// The pipeline used to eat one materialized DayTrace at a time; continuous
// deployment (paper §II-A: a tap below the ISP resolver, running for
// months) needs the inverse — a stream of records crossing day boundaries,
// in whatever format the tap produces. TraceSource is that seam: next()
// yields QueryRecords one at a time, and core::Pipeline::ingest_stream()
// cuts them into observation days.
//
// Concrete sources:
//
//   DayTraceSource   borrows an in-memory DayTrace (the simulator's
//                    direct path).
//   FileTraceSource  opens a trace file in any supported format, sniffing
//                    the format from magic bytes unless told. Wire formats
//                    (dnstap, pcap) and the SEGTRC1 binlog are walked
//                    zero-copy over an mmap'd capture; the sim TSV streams
//                    through the DSV reader. It is the only trace-file
//                    reader: the pipeline, the CLI and the out-of-core
//                    prepare (graph/oocore.h) all read through it.
//
// Memory contract: a mapped capture does not stay resident as a whole.
// Every 4 MiB the cursor advances, FileTraceSource releases the mapped
// pages behind it (util::MmapFile::release_before), so a capture of any
// size holds at most one release step of pages behind the cursor.
//
// Formats and their detection magic are documented in docs/FORMATS.md and
// docs/ingestion.md.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "dns/query_log.h"

namespace seg::dns {

/// The trace encodings FileTraceSource understands.
enum class TraceFormat {
  kSim,     ///< TSV from the simulator / write_trace
  kBinlog,  ///< SEGTRC1 binary (single- or multi-segment, one segment per day)
  kDnstap,  ///< frame-streams dnstap capture
  kPcap,    ///< classic pcap, UDP port-53 fast path
};

/// "sim", "binlog", "dnstap", "pcap".
std::string_view format_name(TraceFormat format);

/// Inverse of format_name(); throws util::ParseError on unknown names.
TraceFormat parse_format(std::string_view name);

/// Sniffs the format from the file's magic bytes: "SEGTRC1" → binlog, a
/// pcap magic → pcap, a leading frame-streams control escape (four zero
/// bytes) → dnstap, anything else (including an empty file) → sim TSV.
/// Throws util::ParseError when the file cannot be opened.
TraceFormat detect_format(const std::string& path);

/// A pull-based stream of query records, ordered by non-decreasing day.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Writes the next record into `record` and returns true, or returns
  /// false at end of stream. Throws util::ParseError on malformed input.
  virtual bool next(QueryRecord& record) = 0;

  /// Well-formed but filtered messages so far (wire sources only; in-memory
  /// and text sources never filter).
  virtual std::uint64_t skipped() const { return 0; }
};

/// Streams a borrowed DayTrace (which must outlive the source).
class DayTraceSource final : public TraceSource {
 public:
  explicit DayTraceSource(const DayTrace& trace) : trace_(&trace) {}

  bool next(QueryRecord& record) override {
    if (index_ >= trace_->records.size()) {
      return false;
    }
    record = trace_->records[index_++];
    return true;
  }

 private:
  const DayTrace* trace_;
  std::size_t index_ = 0;
};

/// Streams a trace file in any supported format. Wire formats and the
/// binlog are parsed zero-copy from a private mapping of the file, whose
/// pages are released behind the cursor as it advances.
class FileTraceSource final : public TraceSource {
 public:
  /// Opens `path`, sniffing the format via detect_format().
  explicit FileTraceSource(const std::string& path);

  /// Opens `path` as `format` (what `--format` on the CLI forces).
  FileTraceSource(const std::string& path, TraceFormat format);

  ~FileTraceSource() override;
  FileTraceSource(const FileTraceSource&) = delete;
  FileTraceSource& operator=(const FileTraceSource&) = delete;

  bool next(QueryRecord& record) override;

  TraceFormat format() const { return format_; }

  /// Well-formed but filtered wire messages (queries, non-INET, no A
  /// records); always 0 for sim/binlog.
  std::uint64_t skipped() const override;

 private:
  struct Impl;
  TraceFormat format_;
  std::unique_ptr<Impl> impl_;
};

/// Reads a whole source into per-day traces — the bridge back to batch
/// tooling. `on_day` fires once per day, in stream order. Returns the
/// total record count. Throws util::ParseError when days go backwards.
std::uint64_t collect_days(TraceSource& source,
                           const std::function<void(DayTrace&&)>& on_day);

}  // namespace seg::dns
