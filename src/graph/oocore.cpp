#include "graph/oocore.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dns/domain_name.h"
#include "dns/trace_source.h"
#include "graph/graph_compressed.h"
#include "util/mmap_file.h"
#include "util/obs/trace.h"
#include "util/parallel.h"
#include "util/require.h"
#include "util/varint.h"

namespace seg::graph {

namespace {

// Buffers that live for the scan or for one spill file take whole
// anonymous mappings (util/mmap_file.h). From the malloc heap, the scan's
// mid-size buffers left resident holes that later allocations could not
// reuse, and segbench oocore-day's peak RSS rose by 12%.
template <typename T>
using StageVector = std::vector<T, util::AnonymousAllocator<T>>;

// --- spill segments ---------------------------------------------------------
//
// A spill file holds concatenated sorted runs of distinct uint64 pairs,
// each run delta + varint coded (util/varint.h). Runs are merged back with
// a k-way heap; duplicates across runs collapse during the merge, so the
// merged stream is globally sorted and distinct.

struct SpillSegment {
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t count = 0;
};

// A full spill buffer is sorted as up to kMaxSortSlices slices on the
// shared pool, each at least kMinSliceRecords long; every slice becomes a
// run of its own. The slicing depends only on the buffer's size, never on
// the pool's, so the segments (and OutOfCoreResult) are the same at every
// pool size.
constexpr std::size_t kMaxSortSlices = 8;
constexpr std::size_t kMinSliceRecords = std::size_t{1} << 14;

/// Buffers pairs and spills every `chunk_records` of them as sorted,
/// distinct runs.
class SpillWriter {
 public:
  SpillWriter(std::string path, std::size_t chunk_records)
      : path_(std::move(path)), out_(path_, std::ios::binary), chunk_records_(chunk_records) {
    util::require_data(out_.is_open(), "oocore: cannot create spill file '" + path_ + "'");
    buffer_.reserve(chunk_records_);
  }

  void push(std::uint64_t pair) {
    buffer_.push_back(pair);
    if (buffer_.size() >= chunk_records_) {
      spill();
    }
  }

  void append(std::span<const std::uint64_t> pairs) {
    while (!pairs.empty()) {
      const std::size_t take = std::min(pairs.size(), chunk_records_ - buffer_.size());
      buffer_.insert(buffer_.end(), pairs.begin(),
                     pairs.begin() + static_cast<std::ptrdiff_t>(take));
      pairs = pairs.subspan(take);
      if (buffer_.size() >= chunk_records_) {
        spill();
      }
    }
  }

  /// Spills what is buffered and closes the file.
  void finish() {
    spill();
    out_.flush();
    util::require_data(static_cast<bool>(out_), "oocore: spill write failed");
    out_.close();
  }

  const std::string& path() const { return path_; }
  const std::vector<SpillSegment>& segments() const { return segments_; }
  std::uint64_t bytes() const { return offset_; }

 private:
  // The pool sorts and deduplicates the slices in place; this thread
  // encodes them. Pool threads allocate nothing here, so no glibc
  // per-thread arena keeps spill memory (see docs/performance.md).
  void spill() {
    const std::size_t n = buffer_.size();
    if (n == 0) {
      return;
    }
    const std::size_t slices = std::clamp<std::size_t>(n / kMinSliceRecords, 1, kMaxSortSlices);
    slice_sizes_.assign(slices, 0);
    util::parallel_for(slices, [&](std::size_t s) {
      const auto begin = buffer_.begin() + static_cast<std::ptrdiff_t>(n * s / slices);
      const auto end = buffer_.begin() + static_cast<std::ptrdiff_t>(n * (s + 1) / slices);
      std::sort(begin, end);
      slice_sizes_[s] = static_cast<std::size_t>(std::unique(begin, end) - begin);
    });
    for (std::size_t s = 0; s < slices; ++s) {
      const std::span<const std::uint64_t> run(buffer_.data() + n * s / slices, slice_sizes_[s]);
      encoded_.clear();
      util::append_ascending_run(encoded_, run);
      out_.write(encoded_.data(), static_cast<std::streamsize>(encoded_.size()));
      segments_.push_back({offset_, encoded_.size(), run.size()});
      offset_ += encoded_.size();
    }
    buffer_.clear();
  }

  std::string path_;
  std::ofstream out_;
  std::size_t chunk_records_;
  StageVector<std::uint64_t> buffer_;
  std::vector<std::size_t> slice_sizes_;  ///< distinct pairs per slice
  std::string encoded_;
  std::vector<SpillSegment> segments_;
  std::uint64_t offset_ = 0;
};

/// Streams one segment's values back with a small refill buffer, read from
/// the merge's one stream over the spill file, so a merge holds one file
/// handle and at most min(segment, buffer) bytes per segment.
class RunReader {
 public:
  explicit RunReader(const SpillSegment& segment)
      : file_offset_(segment.offset),
        remaining_bytes_(segment.bytes),
        remaining_values_(segment.count) {
    buffer_.resize(
        static_cast<std::size_t>(std::min<std::uint64_t>(kBufferBytes, segment.bytes)));
  }

  bool next(std::istream& in, std::uint64_t& value) {
    if (remaining_values_ == 0) {
      return false;
    }
    if (filled_ - pos_ < util::kMaxVarintBytes && remaining_bytes_ > 0) {
      refill(in);
    }
    const unsigned char* p = buffer_.data() + pos_;
    const auto raw = util::decode_varint(p, buffer_.data() + filled_);
    pos_ = static_cast<std::size_t>(p - buffer_.data());
    value = first_ ? raw : prev_ + raw + 1;
    first_ = false;
    prev_ = value;
    --remaining_values_;
    return true;
  }

 private:
  static constexpr std::size_t kBufferBytes = std::size_t{64} << 10;

  void refill(std::istream& in) {
    const std::size_t tail = filled_ - pos_;
    std::memmove(buffer_.data(), buffer_.data() + pos_, tail);
    pos_ = 0;
    filled_ = tail;
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(buffer_.size() - filled_, remaining_bytes_));
    in.seekg(static_cast<std::streamoff>(file_offset_));
    in.read(reinterpret_cast<char*>(buffer_.data() + filled_),
            static_cast<std::streamsize>(want));
    util::require_data(static_cast<std::size_t>(in.gcount()) == want,
                       "oocore: truncated spill segment");
    filled_ += want;
    file_offset_ += want;
    remaining_bytes_ -= want;
  }

  std::vector<unsigned char> buffer_;
  std::size_t pos_ = 0;
  std::size_t filled_ = 0;
  std::uint64_t file_offset_;
  std::uint64_t remaining_bytes_;
  std::uint64_t remaining_values_;
  std::uint64_t prev_ = 0;
  bool first_ = true;
};

/// K-way merge over a spill file's segments, yielding globally sorted
/// distinct values. Construct anew for every pass over the stream.
class SpillMerger {
 public:
  SpillMerger(const std::string& path, const std::vector<SpillSegment>& segments)
      : in_(path, std::ios::binary) {
    util::require_data(in_.is_open(), "oocore: cannot reopen spill file '" + path + "'");
    readers_.reserve(segments.size());
    for (const auto& segment : segments) {
      readers_.emplace_back(segment);
      std::uint64_t value = 0;
      if (readers_.back().next(in_, value)) {
        heap_.push_back({value, readers_.size() - 1});
      }
    }
    for (std::size_t i = heap_.size() / 2; i-- > 0;) {
      sift_down(i);
    }
  }

  bool next(std::uint64_t& value) {
    if (heap_.empty()) {
      return false;
    }
    value = heap_.front().value;
    // Advance every run whose head is `value`, replacing the heap top in
    // place: one sift-down per step instead of a pop and a push.
    do {
      Entry& top = heap_.front();
      if (!readers_[top.source].next(in_, top.value)) {
        top = heap_.back();
        heap_.pop_back();
      }
      sift_down(0);
    } while (!heap_.empty() && heap_.front().value == value);
    return true;
  }

 private:
  struct Entry {
    std::uint64_t value;
    std::size_t source;
  };

  // Min-heap on value; equal values from different runs may sit in any
  // order, since the merge collapses them.
  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t least = i;
      const std::size_t left = 2 * i + 1;
      if (left < n && heap_[left].value < heap_[least].value) {
        least = left;
      }
      if (left + 1 < n && heap_[left + 1].value < heap_[least].value) {
        least = left + 1;
      }
      if (least == i) {
        return;
      }
      std::swap(heap_[i], heap_[least]);
      i = least;
    }
  }

  std::ifstream in_;
  std::vector<RunReader> readers_;
  std::vector<Entry> heap_;
};

/// Buffers one graphc section's u32 values and writes them in blocks.
class U32SectionWriter {
 public:
  explicit U32SectionWriter(detail::PackedGraphcWriter& writer) : writer_(&writer) {
    block_.reserve(kBlockValues);
  }

  void push(std::uint32_t value) {
    block_.push_back(value);
    if (block_.size() == kBlockValues) {
      flush();
    }
  }

  void flush() {
    writer_->bytes(block_.data(), block_.size() * sizeof(std::uint32_t));
    block_.clear();
  }

 private:
  static constexpr std::size_t kBlockValues = std::size_t{1} << 14;
  detail::PackedGraphcWriter* writer_;
  std::vector<std::uint32_t> block_;
};

constexpr std::uint32_t low32(std::uint64_t pair) {
  return static_cast<std::uint32_t>(pair & 0xffffffffu);
}
constexpr std::uint32_t high32(std::uint64_t pair) {
  return static_cast<std::uint32_t>(pair >> 32);
}

struct SpillCleanup {
  std::vector<std::string> paths;
  ~SpillCleanup() {
    for (const auto& path : paths) {
      std::remove(path.c_str());
    }
  }
};

// --- scan batches -------------------------------------------------------------
//
// The scan reads the trace in batches of kOutOfCoreBatchRecords records
// and resolves each batch in four phases:
//
//   A  parallel over row chunks: validate, normalize the qname in place,
//      hash both names, and file each name lookup under its chunk and its
//      dictionary partition (a machine that repeats the previous row's
//      needs no lookup);
//   B  parallel over partitions: worker p resolves partition p's lookups
//      chunk by chunk, so in row order, to id slots of its dictionaries,
//      inserting a missing name with a pending id and listing where it saw
//      it first (with a new domain's e2LD);
//   C  serial, O(new names): merges the partitions' first-sight lists by
//      row and assigns machine ids, then domain ids (interning e2LDs at
//      domain first sight), in that order;
//   D  parallel over row chunks: emits edge and (domain, IP) pairs, the
//      latter through a filter that drops repeated pairs.
//
// A name's first occurrence in the trace is its first occurrence in the
// first batch that holds it, and phase C visits a batch's first
// occurrences in row order, so ids follow the serial scan's
// first-occurrence order for every partition count. Phases A and D use
// kScanChunks fixed chunks, each with its own repeat filter, so the pairs
// reaching the spills depend only on the input, never on the pool size.

constexpr std::size_t kScanChunks = 8;
constexpr std::size_t kMaxPartitions = 64;
constexpr unsigned kRepeatFilterBits = 16;

/// Ids live below this; it is the pending id of a name inserted in phase B
/// and, as a domain id, the empty-slot marker of the repeat filter.
constexpr std::uint32_t kNoId = 0xffffffffu;

/// One record of a batch: offsets into the batch arena plus what phase A
/// derives from them.
struct BatchRow {
  std::size_t text = 0;  ///< arena offset of the machine bytes, then the qname's
  std::size_t ips = 0;   ///< offset into Batch::ips
  std::uint32_t machine_size = 0;
  std::uint32_t qname_size = 0;  ///< normalized length once phase A has run
  std::uint32_t ip_count = 0;
  std::uint32_t machine_partition = 0;
  std::uint32_t domain_partition = 0;
  std::uint32_t machine_lookup = 0;  ///< index into its chunk's machine lookups
  std::uint32_t domain_lookup = 0;   ///< index into its chunk's domain lookups
  bool valid = false;
  bool repeats_machine = false;  ///< same machine as the previous row of its chunk
  std::size_t machine_hash = 0;
  std::size_t domain_hash = 0;
};

/// A batch of records in one flat arena: every record's machine and qname
/// bytes in one buffer, its IPs in one array. The containers keep their
/// capacity across batches, so a steady-state batch allocates nothing.
struct Batch {
  StageVector<char> text;
  StageVector<dns::IpV4> ips;
  StageVector<BatchRow> rows;

  void clear() {
    text.clear();
    ips.clear();
    rows.clear();
  }

  void add(const dns::QueryRecord& record) {
    constexpr std::size_t kMaxField = std::numeric_limits<std::uint32_t>::max();
    util::require_data(record.machine.size() <= kMaxField && record.qname.size() <= kMaxField &&
                           record.resolved_ips.size() <= kMaxField,
                       "oocore: record field too long");
    BatchRow& row = rows.emplace_back();
    row.text = text.size();
    row.machine_size = static_cast<std::uint32_t>(record.machine.size());
    row.qname_size = static_cast<std::uint32_t>(record.qname.size());
    text.insert(text.end(), record.machine.begin(), record.machine.end());
    text.insert(text.end(), record.qname.begin(), record.qname.end());
    row.ips = ips.size();
    row.ip_count = static_cast<std::uint32_t>(record.resolved_ips.size());
    ips.insert(ips.end(), record.resolved_ips.begin(), record.resolved_ips.end());
  }

  std::string_view machine(const BatchRow& row) const {
    return {text.data() + row.text, row.machine_size};
  }
  std::string_view qname(const BatchRow& row) const {
    return {text.data() + row.text + row.machine_size, row.qname_size};
  }
  std::span<const dns::IpV4> row_ips(const BatchRow& row) const {
    return {ips.data() + row.ips, row.ip_count};
  }
};

/// Rows [begin, end) of scan chunk `c` in a batch of `rows` rows.
std::pair<std::size_t, std::size_t> scan_chunk(std::size_t rows, std::size_t c) {
  return {rows * c / kScanChunks, rows * (c + 1) / kScanChunks};
}

/// A name with its hash, computed once in phase A.
struct HashedName {
  std::string_view text;
  std::size_t hash = 0;
};

/// A dictionary key: the name and its hash, so a lookup compares hashes
/// before bytes and a rehash never hashes a name again.
struct DictionaryKey {
  std::string text;
  std::size_t hash = 0;
};

struct DictionaryHash {
  using is_transparent = void;
  std::size_t operator()(const DictionaryKey& key) const noexcept { return key.hash; }
  std::size_t operator()(const HashedName& name) const noexcept { return name.hash; }
};

struct DictionaryEqual {
  using is_transparent = void;
  bool operator()(const DictionaryKey& a, const DictionaryKey& b) const noexcept {
    return a.hash == b.hash && a.text == b.text;
  }
  bool operator()(const HashedName& a, const DictionaryKey& b) const noexcept {
    return a.hash == b.hash && a.text == b.text;
  }
  bool operator()(const DictionaryKey& a, const HashedName& b) const noexcept {
    return a.hash == b.hash && a.text == b.text;
  }
};

/// One partition of the machine or the domain dictionary: name -> id.
/// unordered_map element references survive rehashing, so an id slot
/// handed out in phase B stays valid.
using Dictionary =
    std::unordered_map<DictionaryKey, std::uint32_t, DictionaryHash, DictionaryEqual>;

/// A phase B lookup: the row whose name it resolves, and the id slot.
struct Lookup {
  std::uint32_t row = 0;
  std::uint32_t* slot = nullptr;
};

/// A name's first sight: its row and id slot, and for a domain the length
/// of its e2LD (a suffix of the name).
struct FirstSight {
  std::uint32_t row = 0;
  std::uint32_t e2ld_size = 0;
  std::uint32_t* slot = nullptr;
};

std::size_t name_hash(std::string_view name) { return std::hash<std::string_view>{}(name); }

/// The dictionary partition of a name hash: its high bits, which the
/// map's bucket index (the hash modulo a prime) does not lean on.
std::uint32_t partition_of(std::size_t hash, std::size_t partitions) {
  return static_cast<std::uint32_t>(((static_cast<std::uint64_t>(hash) >> 32) * partitions) >>
                                    32);
}

/// Phase A for one row: validity, in-place normalization (strip one
/// trailing dot, lowercase ASCII — DomainName::parse(q).str() for a valid
/// name), the name hashes and partitions. `previous` is the row before it
/// in its chunk, if any.
void prepare_row(Batch& batch, BatchRow& row, const BatchRow* previous,
                 std::size_t partitions) {
  const std::string_view qname = batch.qname(row);
  row.valid = row.machine_size != 0 && dns::DomainName::is_valid(qname);
  if (!row.valid) {
    return;
  }
  if (qname.back() == '.') {
    --row.qname_size;
  }
  char* text = batch.text.data() + row.text + row.machine_size;
  for (std::size_t i = 0; i < row.qname_size; ++i) {
    const bool upper = static_cast<unsigned char>(text[i] - 'A') < 26;
    text[i] = static_cast<char>(text[i] + (upper ? 'a' - 'A' : 0));
  }
  row.repeats_machine =
      previous != nullptr && previous->valid && batch.machine(*previous) == batch.machine(row);
  if (!row.repeats_machine) {
    row.machine_hash = name_hash(batch.machine(row));
    row.machine_partition = partition_of(row.machine_hash, partitions);
  }
  row.domain_hash = name_hash(batch.qname(row));
  row.domain_partition = partition_of(row.domain_hash, partitions);
}

/// Phase B: the id slot of `name`, inserting it with a pending id (and
/// recording its first sight, with e2ld_size()) when the dictionary lacks it.
template <typename E2ldSize>
std::uint32_t* resolve(Dictionary& dictionary, const HashedName& name, std::uint32_t row,
                       std::vector<FirstSight>& first_seen, E2ldSize&& e2ld_size) {
  if (const auto it = dictionary.find(name); it != dictionary.end()) {
    return &it->second;
  }
  std::uint32_t& slot =
      dictionary.emplace(DictionaryKey{std::string(name.text), name.hash}, kNoId).first->second;
  first_seen.push_back({row, static_cast<std::uint32_t>(e2ld_size()), &slot});
  return &slot;
}

/// Direct-mapped memory of recently emitted (domain, IP) pairs. It drops
/// only exact repeats, so what passes still holds every distinct pair; the
/// spill's sort + unique removes the repeats it misses.
class RepeatFilter {
 public:
  RepeatFilter() : slots_(std::size_t{1} << kRepeatFilterBits, kEmptySlot) {}

  /// False when `pair` is the pair its slot last saw; remembers it.
  bool admit(std::uint64_t pair) {
    auto& slot = slots_[(pair * 0x9e3779b97f4a7c15ull) >> (64 - kRepeatFilterBits)];
    if (slot == pair) {
      return false;
    }
    slot = pair;
    return true;
  }

 private:
  // Domain id kNoId: no real pair, since ids stay below it.
  static constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};
  StageVector<std::uint64_t> slots_;
};

/// Lookup offsets by partition: partition p's lookups of a chunk sit at
/// [offsets[p], offsets[p + 1]).
using PartitionOffsets = std::array<std::uint32_t, kMaxPartitions + 1>;

/// What one scan chunk's worker owns in phases A and D. Cache-line
/// aligned, so no two chunk workers write to one line.
struct alignas(64) ScanChunk {
  std::size_t skipped = 0;
  PartitionOffsets machine_offsets{};
  PartitionOffsets domain_offsets{};
  StageVector<Lookup> machine_lookups;  ///< grouped by partition, each in row order
  StageVector<Lookup> domain_lookups;
  StageVector<std::uint64_t> edges;
  StageVector<std::uint64_t> ips;
  RepeatFilter ip_filter;
};

/// What one dictionary partition's worker owns in phase B.
struct alignas(64) DictionaryPartition {
  Dictionary machines;
  Dictionary domains;
  std::vector<FirstSight> machine_first_seen;
  std::vector<FirstSight> domain_first_seen;
};

/// Phase C: calls fn(sight) for every entry of the partitions' `list`s of
/// first sights (each ascending by row), in ascending row order.
template <typename Fn>
void for_each_first_sight(const std::vector<DictionaryPartition>& partitions,
                          std::vector<FirstSight> DictionaryPartition::*list,
                          std::vector<std::size_t>& cursors, Fn&& fn) {
  const std::size_t n = partitions.size();
  cursors.assign(n, 0);
  while (true) {
    std::size_t best = n;
    for (std::size_t p = 0; p < n; ++p) {
      const auto& sights = partitions[p].*list;
      if (cursors[p] < sights.size() &&
          (best == n || sights[cursors[p]].row < (partitions[best].*list)[cursors[best]].row)) {
        best = p;
      }
    }
    if (best == n) {
      return;
    }
    fn((partitions[best].*list)[cursors[best]++]);
  }
}

/// Phase A for the chunk of rows [begin, end): prepares its rows, then
/// files each lookup under its partition (a counting sort, so each
/// partition's lookups stay in row order).
void prepare_chunk(Batch& batch, std::size_t begin, std::size_t end, std::size_t partitions,
                  ScanChunk& chunk) {
  auto& rows = batch.rows;
  PartitionOffsets machine_counts{};
  PartitionOffsets domain_counts{};
  chunk.skipped = 0;
  for (std::size_t i = begin; i < end; ++i) {
    BatchRow& row = rows[i];
    prepare_row(batch, row, i > begin ? &rows[i - 1] : nullptr, partitions);
    if (!row.valid) {
      ++chunk.skipped;
      continue;
    }
    if (!row.repeats_machine) {
      ++machine_counts[row.machine_partition + 1];
    }
    ++domain_counts[row.domain_partition + 1];
  }
  for (std::size_t p = 0; p < partitions; ++p) {
    machine_counts[p + 1] += machine_counts[p];
    domain_counts[p + 1] += domain_counts[p];
  }
  chunk.machine_offsets = machine_counts;
  chunk.domain_offsets = domain_counts;
  for (std::size_t i = begin; i < end; ++i) {
    BatchRow& row = rows[i];
    if (!row.valid) {
      continue;
    }
    const auto index = static_cast<std::uint32_t>(i);
    if (!row.repeats_machine) {
      row.machine_lookup = machine_counts[row.machine_partition]++;
      chunk.machine_lookups[row.machine_lookup] = {index, nullptr};
    }
    row.domain_lookup = domain_counts[row.domain_partition]++;
    chunk.domain_lookups[row.domain_lookup] = {index, nullptr};
  }
}

}  // namespace

OutOfCoreResult prepare_graph_out_of_core(const std::string& trace_path,
                                          const dns::PublicSuffixList& psl,
                                          const NameSet& cc_blacklist,
                                          const NameSet& e2ld_whitelist,
                                          const std::string& out_path,
                                          const OutOfCoreConfig& config) {
  util::require(config.chunk_records > 0, "oocore: chunk_records must be positive");
  const auto& pruning = config.pruning;
  util::require(pruning.proxy_degree_percentile > 0.0 && pruning.proxy_degree_percentile <= 1.0,
                "oocore: proxy_degree_percentile must be in (0, 1]");
  util::require(pruning.popular_e2ld_fraction > 0.0 && pruning.popular_e2ld_fraction <= 1.0,
                "oocore: popular_e2ld_fraction must be in (0, 1]");

  OutOfCoreResult result;
  const std::string spill_base =
      config.spill_dir.empty() ? out_path : config.spill_dir + "/oocore";
  SpillCleanup cleanup;

  // --- Scan: batches in file order (see "scan batches" above). Machine/
  // domain/e2LD ids are assigned by first occurrence, exactly as
  // GraphBuilder::add_query (and therefore the sharded builder, which is
  // bit-identical to it) assigns them; edge and IP pairs go to sorted
  // compressed spill segments.
  obs::Span scan_span("oocore/scan");
  const std::size_t partitions = std::min(util::parallelism(), kMaxPartitions);
  std::vector<DictionaryPartition> dictionaries(partitions);
  std::vector<ScanChunk> chunks(kScanChunks);
  std::vector<std::size_t> merge_cursors;
  std::vector<std::string> machine_names;
  std::vector<std::string> domain_names;
  StringIdMap<E2ldId> e2ld_ids;
  std::vector<std::string> e2ld_names;
  std::vector<E2ldId> domain_e2ld;

  SpillWriter edge_spill(spill_base + ".spill-edges", config.chunk_records);
  SpillWriter ip_spill(spill_base + ".spill-ips", config.chunk_records);
  cleanup.paths = {edge_spill.path(), ip_spill.path()};

  // The first record fixes the day; the output graph holds exactly one.
  dns::FileTraceSource source(trace_path);
  dns::QueryRecord record;
  dns::Day day = 0;
  Batch batch;
  batch.rows.reserve(kOutOfCoreBatchRecords);
  for (bool more = true; more;) {
    batch.clear();
    while (batch.rows.size() < kOutOfCoreBatchRecords && (more = source.next(record))) {
      if (result.records++ == 0) {
        day = record.day;
      } else if (record.day != day) [[unlikely]] {
        throw util::ParseError("oocore: trace spans more than one day (day " +
                               std::to_string(record.day) + " after day " +
                               std::to_string(day) + ")");
      }
      batch.add(record);
    }
    auto& rows = batch.rows;
    if (rows.empty()) {
      break;
    }

    // A: validate, normalize, hash, and file the lookups. The caller sizes
    // every buffer a worker fills, so pool threads allocate only
    // dictionary entries.
    for (std::size_t c = 0; c < kScanChunks; ++c) {
      const auto [begin, end] = scan_chunk(rows.size(), c);
      chunks[c].machine_lookups.resize(end - begin);
      chunks[c].domain_lookups.resize(end - begin);
    }
    util::parallel_for(kScanChunks, [&](std::size_t c) {
      const auto [begin, end] = scan_chunk(rows.size(), c);
      prepare_chunk(batch, begin, end, partitions, chunks[c]);
    });
    for (const auto& chunk : chunks) {
      result.skipped_records += chunk.skipped;
    }

    // B: resolve partition p's lookups, chunk by chunk, so in row order.
    util::parallel_for(partitions, [&](std::size_t p) {
      auto& dictionary = dictionaries[p];
      dictionary.machine_first_seen.clear();
      dictionary.domain_first_seen.clear();
      for (auto& chunk : chunks) {
        for (auto i = chunk.machine_offsets[p]; i < chunk.machine_offsets[p + 1]; ++i) {
          Lookup& lookup = chunk.machine_lookups[i];
          const BatchRow& row = rows[lookup.row];
          lookup.slot = resolve(dictionary.machines, {batch.machine(row), row.machine_hash},
                                lookup.row, dictionary.machine_first_seen, [] { return 0; });
        }
        for (auto i = chunk.domain_offsets[p]; i < chunk.domain_offsets[p + 1]; ++i) {
          Lookup& lookup = chunk.domain_lookups[i];
          const BatchRow& row = rows[lookup.row];
          const HashedName name{batch.qname(row), row.domain_hash};
          lookup.slot = resolve(dictionary.domains, name, lookup.row,
                                dictionary.domain_first_seen,
                                [&] { return psl.e2ld_or_self(name.text).size(); });
        }
      }
    });

    // C: first-occurrence ids in row order.
    for_each_first_sight(dictionaries, &DictionaryPartition::machine_first_seen, merge_cursors,
                         [&](const FirstSight& sight) {
      util::require_data(machine_names.size() < kNoId, "oocore: too many machines");
      *sight.slot = static_cast<MachineId>(machine_names.size());
      machine_names.emplace_back(batch.machine(rows[sight.row]));
    });
    for_each_first_sight(dictionaries, &DictionaryPartition::domain_first_seen, merge_cursors,
                         [&](const FirstSight& sight) {
      util::require_data(domain_names.size() < kNoId, "oocore: too many domains");
      *sight.slot = static_cast<DomainId>(domain_names.size());
      const std::string_view name = batch.qname(rows[sight.row]);
      domain_names.emplace_back(name);
      // e2LDs intern at domain first occurrence — the same sequence the
      // in-memory builder produces by iterating domains in id order.
      const std::string_view e2ld = name.substr(name.size() - sight.e2ld_size);
      if (const auto it = e2ld_ids.find(e2ld); it != e2ld_ids.end()) {
        domain_e2ld.push_back(it->second);
      } else {
        const auto e = static_cast<E2ldId>(e2ld_names.size());
        e2ld_names.emplace_back(e2ld);
        e2ld_ids.emplace(e2ld_names.back(), e);
        domain_e2ld.push_back(e);
      }
    });

    // D: emit pairs into per-chunk buffers reserved here, then hand them to
    // the spills in chunk order.
    for (std::size_t c = 0; c < kScanChunks; ++c) {
      const auto [begin, end] = scan_chunk(rows.size(), c);
      chunks[c].edges.clear();
      chunks[c].edges.reserve(end - begin);
      chunks[c].ips.clear();
      if (begin < end) {
        chunks[c].ips.reserve(rows[end - 1].ips + rows[end - 1].ip_count - rows[begin].ips);
      }
    }
    util::parallel_for(kScanChunks, [&](std::size_t c) {
      const auto [begin, end] = scan_chunk(rows.size(), c);
      auto& chunk = chunks[c];
      std::uint64_t m = 0;
      for (std::size_t i = begin; i < end; ++i) {
        const BatchRow& row = rows[i];
        if (!row.valid) {
          continue;
        }
        if (!row.repeats_machine) {
          m = *chunk.machine_lookups[row.machine_lookup].slot;
        }
        const std::uint64_t d = *chunk.domain_lookups[row.domain_lookup].slot;
        chunk.edges.push_back((m << 32) | d);
        for (const auto ip : batch.row_ips(row)) {
          const std::uint64_t pair = (d << 32) | ip.value();
          if (chunk.ip_filter.admit(pair)) {
            chunk.ips.push_back(pair);
          }
        }
      }
    });
    for (const auto& chunk : chunks) {
      edge_spill.append(chunk.edges);
      ip_spill.append(chunk.ips);
    }
  }
  edge_spill.finish();
  ip_spill.finish();
  dictionaries = {};
  chunks = {};
  e2ld_ids = {};
  batch = {};
  result.spill_segments = edge_spill.segments().size() + ip_spill.segments().size();
  result.spill_bytes = edge_spill.bytes() + ip_spill.bytes();
  scan_span.close();

  const std::size_t nm = machine_names.size();
  const std::size_t nd = domain_names.size();
  const std::size_t ne = e2ld_names.size();
  PruneStats& stats = result.prune_stats;
  stats.machines_before = nm;
  stats.domains_before = nd;

  // --- Labels (apply_labels semantics): domains from the lists, machines
  // derived from their distinct-domain label counts during the first edge
  // merge, which also yields the unpruned machine degrees for R1/R2.
  obs::Span label_span("oocore/labels");
  std::vector<Label> domain_labels(nd, Label::kUnknown);
  for (DomainId d = 0; d < nd; ++d) {
    if (cc_blacklist.contains(domain_names[d])) {
      domain_labels[d] = Label::kMalware;
    } else if (e2ld_whitelist.contains(e2ld_names[domain_e2ld[d]])) {
      domain_labels[d] = Label::kBenign;
    }
  }

  std::vector<std::uint64_t> degrees(nm, 0);
  std::vector<std::uint32_t> machine_malware(nm, 0);
  std::vector<std::uint32_t> machine_benign(nm, 0);
  {
    SpillMerger merge(edge_spill.path(), edge_spill.segments());
    std::uint64_t pair = 0;
    while (merge.next(pair)) {
      const auto m = high32(pair);
      const auto d = low32(pair);
      ++degrees[m];
      ++stats.edges_before;
      if (domain_labels[d] == Label::kMalware) {
        ++machine_malware[m];
      } else if (domain_labels[d] == Label::kBenign) {
        ++machine_benign[m];
      }
    }
  }
  std::vector<Label> machine_labels(nm, Label::kUnknown);
  for (MachineId m = 0; m < nm; ++m) {
    machine_labels[m] =
        derive_machine_label(degrees[m], machine_malware[m], machine_benign[m]);
  }
  machine_malware = {};
  machine_benign = {};
  label_span.close();

  // --- R1 + R2 (same arithmetic as prune()).
  obs::Span masks_span("oocore/prune-masks");
  std::uint64_t theta_d = std::numeric_limits<std::uint64_t>::max();
  if (!degrees.empty()) {
    std::vector<std::uint64_t> sorted = degrees;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(pruning.proxy_degree_percentile * static_cast<double>(sorted.size())));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    theta_d = sorted[std::min(index, sorted.size() - 1)];
    theta_d = std::max<std::uint64_t>(theta_d, pruning.inactive_machine_max_degree + 2);
  }
  stats.theta_d = theta_d;

  std::vector<std::uint8_t> keep_machine(nm, 1);
  for (MachineId m = 0; m < nm; ++m) {
    const bool is_malware = machine_labels[m] == Label::kMalware;
    if (degrees[m] <= pruning.inactive_machine_max_degree) {
      if (is_malware) {
        ++stats.malware_machines_kept_by_exception;
      } else {
        keep_machine[m] = 0;
        ++stats.machines_removed_r1;
        continue;
      }
    }
    if (degrees[m] > theta_d) {
      keep_machine[m] = 0;
      ++stats.machines_removed_r2;
    }
  }

  // --- Second edge merge: domain degrees over kept machines, plus distinct
  // kept machines per e2LD. The merged stream is machine-major, so each
  // machine contributes its distinct e2LDs through a stamp array.
  std::vector<std::uint64_t> domain_degree(nd, 0);
  std::vector<std::uint64_t> e2ld_machines(ne, 0);
  {
    std::vector<std::uint32_t> stamp(ne, 0xffffffffu);
    SpillMerger merge(edge_spill.path(), edge_spill.segments());
    std::uint64_t pair = 0;
    while (merge.next(pair)) {
      const auto m = high32(pair);
      if (keep_machine[m] == 0) {
        continue;
      }
      const auto d = low32(pair);
      ++domain_degree[d];
      const auto e = domain_e2ld[d];
      if (stamp[e] != m) {
        stamp[e] = m;
        ++e2ld_machines[e];
      }
    }
  }

  // --- R3 + R4.
  const auto theta_m = static_cast<std::uint64_t>(
      std::ceil(pruning.popular_e2ld_fraction * static_cast<double>(nm)));
  stats.theta_m = theta_m;
  std::vector<std::uint8_t> keep_domain(nd, 1);
  for (DomainId d = 0; d < nd; ++d) {
    const bool is_malware = domain_labels[d] == Label::kMalware;
    if (e2ld_machines[domain_e2ld[d]] >= theta_m) {
      keep_domain[d] = 0;
      ++stats.domains_removed_r4;
      continue;
    }
    if (domain_degree[d] < pruning.min_domain_machines) {
      if (is_malware && domain_degree[d] > 0) {
        ++stats.malware_domains_kept_by_exception;
      } else {
        keep_domain[d] = 0;
        ++stats.domains_removed_r3;
      }
    }
  }
  degrees = {};
  domain_degree = {};
  e2ld_machines = {};

  // --- Dense remaps and the pruned node-level tables (prune_impl
  // semantics: names/labels carried over, e2LDs re-interned in surviving
  // domain order).
  std::vector<MachineId> machine_map(nm, static_cast<MachineId>(nm));
  std::vector<MachineId> kept_machines;
  for (MachineId m = 0; m < nm; ++m) {
    if (keep_machine[m] != 0) {
      machine_map[m] = static_cast<MachineId>(kept_machines.size());
      kept_machines.push_back(m);
    }
  }
  std::vector<DomainId> domain_map(nd, static_cast<DomainId>(nd));
  std::vector<DomainId> kept_domains;
  for (DomainId d = 0; d < nd; ++d) {
    if (keep_domain[d] != 0) {
      domain_map[d] = static_cast<DomainId>(kept_domains.size());
      kept_domains.push_back(d);
    }
  }
  const std::size_t nm_new = kept_machines.size();
  const std::size_t nd_new = kept_domains.size();
  stats.machines_after = nm_new;
  stats.domains_after = nd_new;

  StringIdMap<E2ldId> new_e2ld_ids;
  std::vector<std::string> new_e2ld_names;
  std::vector<E2ldId> new_domain_e2ld;
  new_domain_e2ld.reserve(nd_new);
  for (const auto d : kept_domains) {
    const std::string& e2ld = e2ld_names[domain_e2ld[d]];
    if (const auto it = new_e2ld_ids.find(e2ld); it != new_e2ld_ids.end()) {
      new_domain_e2ld.push_back(it->second);
    } else {
      const auto id = static_cast<E2ldId>(new_e2ld_names.size());
      new_e2ld_names.push_back(e2ld);
      new_e2ld_ids.emplace(e2ld, id);
      new_domain_e2ld.push_back(id);
    }
  }
  new_e2ld_ids = {};
  masks_span.close();

  // --- Third edge merge: surviving CSR shape (degrees both sides), which
  // fixes every header count and section offset before any output byte.
  obs::Span write_span("oocore/write");
  std::vector<std::uint64_t> machine_offsets(nm_new + 1, 0);
  std::vector<std::uint64_t> domain_offsets(nd_new + 1, 0);
  {
    SpillMerger merge(edge_spill.path(), edge_spill.segments());
    std::uint64_t pair = 0;
    while (merge.next(pair)) {
      const auto m = high32(pair);
      const auto d = low32(pair);
      if (keep_machine[m] != 0 && keep_domain[d] != 0) {
        ++machine_offsets[machine_map[m] + 1];
        ++domain_offsets[domain_map[d] + 1];
      }
    }
  }
  for (std::size_t i = 1; i <= nm_new; ++i) {
    machine_offsets[i] += machine_offsets[i - 1];
  }
  for (std::size_t i = 1; i <= nd_new; ++i) {
    domain_offsets[i] += domain_offsets[i - 1];
  }
  const std::uint64_t edges_after = machine_offsets.back();
  stats.edges_after = edges_after;

  // --- First IP merge: surviving per-domain IP-set sizes.
  std::vector<std::uint64_t> ip_offsets(nd_new + 1, 0);
  {
    SpillMerger merge(ip_spill.path(), ip_spill.segments());
    std::uint64_t pair = 0;
    while (merge.next(pair)) {
      const auto d = high32(pair);
      if (keep_domain[d] != 0) {
        ++ip_offsets[domain_map[d] + 1];
      }
    }
  }
  for (std::size_t i = 1; i <= nd_new; ++i) {
    ip_offsets[i] += ip_offsets[i - 1];
  }
  const std::uint64_t ips_after = ip_offsets.back();

  // --- Stream the packed graphc file section by section. Each merged
  // stream arrives in exactly the order the section stores (the id remaps
  // are monotone), so every section is written strictly sequentially.
  detail::GraphcCounts counts;
  counts.day = day;
  counts.machines = nm_new;
  counts.domains = nd_new;
  counts.e2lds = new_e2ld_names.size();
  counts.edges = edges_after;
  counts.ips = ips_after;
  for (const auto m : kept_machines) {
    counts.machine_name_bytes += machine_names[m].size();
  }
  for (const auto d : kept_domains) {
    counts.domain_name_bytes += domain_names[d].size();
  }
  for (const auto& name : new_e2ld_names) {
    counts.e2ld_name_bytes += name.size();
  }

  std::ofstream out(out_path, std::ios::binary);
  util::require_data(out.is_open(), "oocore: cannot create output file '" + out_path + "'");
  detail::PackedGraphcWriter writer(out, counts);
  writer.name_table(nm_new, [&](std::size_t i) {
    return std::string_view(machine_names[kept_machines[i]]);
  });
  writer.name_table(nd_new, [&](std::size_t i) {
    return std::string_view(domain_names[kept_domains[i]]);
  });
  writer.name_table(new_e2ld_names.size(),
                    [&](std::size_t i) { return std::string_view(new_e2ld_names[i]); });

  writer.bytes(new_domain_e2ld.data(), new_domain_e2ld.size() * sizeof(E2ldId));
  writer.pad8();
  writer.bytes(machine_offsets.data(), machine_offsets.size() * sizeof(std::uint64_t));
  writer.pad8();

  // machine_targets: fourth edge merge streams the kept edges in
  // (machine, domain) order; the swapped pairs spill for the reverse CSR.
  SpillWriter swap_spill(spill_base + ".spill-swapped", config.chunk_records);
  cleanup.paths.push_back(swap_spill.path());
  U32SectionWriter section(writer);
  {
    SpillMerger merge(edge_spill.path(), edge_spill.segments());
    std::uint64_t pair = 0;
    while (merge.next(pair)) {
      const auto m = high32(pair);
      const auto d = low32(pair);
      if (keep_machine[m] == 0 || keep_domain[d] == 0) {
        continue;
      }
      section.push(domain_map[d]);
      swap_spill.push((static_cast<std::uint64_t>(domain_map[d]) << 32) | machine_map[m]);
    }
    swap_spill.finish();
  }
  section.flush();
  writer.pad8();

  writer.bytes(domain_offsets.data(), domain_offsets.size() * sizeof(std::uint64_t));
  writer.pad8();
  {
    SpillMerger merge(swap_spill.path(), swap_spill.segments());
    std::uint64_t pair = 0;
    std::uint64_t written = 0;
    while (merge.next(pair)) {
      section.push(low32(pair));
      ++written;
    }
    util::require(written == edges_after, "oocore: swapped edge stream lost pairs");
  }
  section.flush();
  writer.pad8();

  writer.bytes(ip_offsets.data(), ip_offsets.size() * sizeof(std::uint64_t));
  writer.pad8();
  {
    SpillMerger merge(ip_spill.path(), ip_spill.segments());
    std::uint64_t pair = 0;
    while (merge.next(pair)) {
      if (keep_domain[high32(pair)] != 0) {
        section.push(low32(pair));
      }
    }
  }
  section.flush();
  writer.pad8();

  {
    std::vector<Label> pruned(nm_new);
    for (std::size_t i = 0; i < nm_new; ++i) {
      pruned[i] = machine_labels[kept_machines[i]];
    }
    writer.bytes(pruned.data(), pruned.size());
    writer.pad8();
  }
  {
    std::vector<Label> pruned(nd_new);
    for (std::size_t i = 0; i < nd_new; ++i) {
      pruned[i] = domain_labels[kept_domains[i]];
    }
    writer.bytes(pruned.data(), pruned.size());
    writer.pad8();
  }
  writer.finish();
  out.flush();
  util::require_data(static_cast<bool>(out), "oocore: output write failed");
  write_span.close();
  return result;
}

}  // namespace seg::graph
