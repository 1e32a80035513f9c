#include "graph/oocore.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "dns/domain_name.h"
#include "dns/record_arena.h"
#include "dns/trace_source.h"
#include "graph/graph_compressed.h"
#include "util/mmap_file.h"
#include "util/obs/metrics.h"
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

constexpr std::uint32_t low32(std::uint64_t pair) {
  return static_cast<std::uint32_t>(pair & 0xffffffffu);
}
constexpr std::uint32_t high32(std::uint64_t pair) {
  return static_cast<std::uint32_t>(pair >> 32);
}

// --- spill files ------------------------------------------------------------
//
// A spill file holds concatenated sorted runs of distinct uint64 pairs,
// each block-coded (util/varint.h): every kBlockPairs pairs the delta
// coding restarts with a verbatim value, and the file's block index
// records each block's first pair and byte offset. A merge of one key
// range starts every run at the block that holds the range's first key and
// reads the run a block at a time, so it holds one block per run, whatever
// the spill's size.

/// Pairs per restart block of a spill run. A merge holds one block per run
/// and slot, so the block bounds its read buffers; a restart costs a few
/// bytes (about 0.2% of oocore-day's spill at this size).
constexpr std::size_t kBlockPairs = 1024;

/// One run of a spill file and its blocks in the file's block index.
struct SpillRun {
  std::uint64_t offset = 0;  ///< file offset of the run's first byte
  std::uint64_t bytes = 0;
  std::uint64_t last = 0;    ///< the run's largest pair
  std::size_t first_block = 0;
  std::size_t blocks = 0;
};

/// A spill file of sorted, distinct, block-coded runs. write_run may be
/// called from several threads at once.
class SpillFile {
 public:
  explicit SpillFile(std::string path) : path_(std::move(path)), out_(path_, std::ios::binary) {
    util::require_data(out_.is_open(), "oocore: cannot create spill file '" + path_ + "'");
  }

  /// Makes room in the index for `runs` more runs of `blocks` more blocks
  /// in all, so that writing them allocates nothing.
  void reserve(std::size_t runs, std::size_t blocks) {
    runs_.reserve(runs_.size() + runs);
    blocks_.reserve(blocks_.size() + blocks);
  }

  /// Appends one sorted, distinct run, coded into the caller's scratch
  /// buffers first, so only the file append holds the lock.
  template <typename Bytes>
  void write_run(std::span<const std::uint64_t> run, Bytes& scratch,
                 std::vector<util::RunBlock>& block_scratch) {
    if (run.empty()) {
      return;
    }
    scratch.clear();
    block_scratch.clear();
    util::append_block_run(scratch, run, kBlockPairs, block_scratch);
    std::lock_guard lock(mutex_);
    out_.write(scratch.data(), static_cast<std::streamsize>(scratch.size()));
    runs_.push_back({bytes_, scratch.size(), run.back(), blocks_.size(), block_scratch.size()});
    blocks_.insert(blocks_.end(), block_scratch.begin(), block_scratch.end());
    bytes_ += scratch.size();
  }

  /// Flushes and closes the file.
  void finish() { util::close_output(out_, path_); }

  const std::string& path() const { return path_; }
  const std::vector<SpillRun>& runs() const { return runs_; }
  const std::vector<util::RunBlock>& blocks() const { return blocks_; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::mutex mutex_;
  std::vector<SpillRun> runs_;
  std::vector<util::RunBlock> blocks_;
  std::uint64_t bytes_ = 0;
};

// A full spill buffer is sorted as up to kMaxSortSlices slices on the
// shared pool, each at least kMinSliceRecords long; every slice becomes a
// run of its own. The slicing depends only on the buffer's size, never on
// the pool's, so the runs (and OutOfCoreResult) are the same at every
// pool size.
constexpr std::size_t kMaxSortSlices = 8;
constexpr std::size_t kMinSliceRecords = std::size_t{1} << 14;

/// Buffers the scan's pairs and spills every `chunk_records` of them as
/// sorted, distinct runs.
class SpillWriter {
 public:
  SpillWriter(std::string path, std::size_t chunk_records)
      : file_(std::move(path)), chunk_records_(chunk_records) {
    buffer_.reserve(chunk_records_);
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

  /// Spills what is buffered, frees the buffer and closes the file.
  void finish() {
    spill();
    buffer_ = {};
    file_.finish();
  }

  const SpillFile& file() const { return file_; }

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
      file_.write_run({buffer_.data() + n * s / slices, slice_sizes_[s]}, encoded_, blocks_);
    }
    buffer_.clear();
  }

  SpillFile file_;
  std::size_t chunk_records_;
  StageVector<std::uint64_t> buffer_;
  std::vector<std::size_t> slice_sizes_;  ///< distinct pairs per slice
  std::string encoded_;
  std::vector<util::RunBlock> blocks_;
};

/// A file opened for positioned reads or writes, which several threads
/// may make at once: the merges read spill blocks, and the section writes
/// fill disjoint byte ranges of the output.
class PositionedFile {
 public:
  PositionedFile(const std::string& path, int flags)
      : fd_(::open(path.c_str(), flags | O_CLOEXEC)) {
    util::require_data(fd_ >= 0, "oocore: cannot open '" + path + "'");
  }
  ~PositionedFile() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  PositionedFile(const PositionedFile&) = delete;
  PositionedFile& operator=(const PositionedFile&) = delete;

  void read_at(std::uint64_t offset, void* data, std::size_t size) const {
    auto* bytes = static_cast<char*>(data);
    while (size > 0) {
      const ::ssize_t n = ::pread(fd_, bytes, size, static_cast<::off_t>(offset));
      if (n < 0 && errno == EINTR) {
        continue;
      }
      util::require_data(n > 0, "oocore: truncated spill file");
      bytes += n;
      size -= static_cast<std::size_t>(n);
      offset += static_cast<std::uint64_t>(n);
    }
  }

  void write_at(std::uint64_t offset, const void* data, std::size_t size) const {
    const auto* bytes = static_cast<const char*>(data);
    while (size > 0) {
      const ::ssize_t n = ::pwrite(fd_, bytes, size, static_cast<::off_t>(offset));
      if (n < 0 && errno == EINTR) {
        continue;
      }
      util::require_data(n > 0, "oocore: output write failed");
      bytes += n;
      size -= static_cast<std::size_t>(n);
      offset += static_cast<std::uint64_t>(n);
    }
  }

  void close() {
    const int fd = std::exchange(fd_, -1);
    util::require_data(::close(fd) == 0, "oocore: output write failed");
  }

 private:
  int fd_;
};

/// A finished spill file, opened for the merges' block reads.
class SpillReader {
 public:
  explicit SpillReader(const SpillFile& spill) : spill_(&spill), file_(spill.path(), O_RDONLY) {}

  const std::vector<SpillRun>& runs() const { return spill_->runs(); }
  std::span<const util::RunBlock> blocks(const SpillRun& run) const {
    return {spill_->blocks().data() + run.first_block, run.blocks};
  }

  /// The size of block `b` of `run`, in bytes.
  std::size_t block_bytes(const SpillRun& run, std::size_t b) const {
    const auto index = blocks(run);
    const std::uint64_t end = b + 1 < index.size() ? index[b + 1].offset : run.bytes;
    util::require_data(index[b].offset <= end, "oocore: spill block index out of order");
    return static_cast<std::size_t>(end - index[b].offset);
  }

  /// Reads block `b` of `run` into `buffer`, which must hold it.
  std::span<const unsigned char> read_block(const SpillRun& run, std::size_t b,
                                            std::span<unsigned char> buffer) const {
    const std::size_t size = block_bytes(run, b);
    util::require_data(size <= buffer.size(), "oocore: spill block outgrows its buffer");
    file_.read_at(run.offset + blocks(run)[b].offset, buffer.data(), size);
    return buffer.first(size);
  }

 private:
  const SpillFile* spill_;
  PositionedFile file_;
};

// --- range merges -----------------------------------------------------------
//
// Every merge pass after the scan runs on the shared pool as kMergeRanges
// range tasks. A spill's keys are (node << 32 | other) pairs — machine
// ids for edge pairs, domain ids for IP and swapped pairs — and the cuts
// between ranges fall on node boundaries, so a node's pairs all reach one
// task: per-node state is written without contention, and per-node
// counting needs no merge across tasks. The cuts are quantiles of the
// blocks' first nodes, a function of the spill's contents alone.
//
// Range tasks run in contiguous chunks, one MergeSlot per chunk, so the
// slot's buffers are used by one thread at a time. A range task never calls
// util::parallel_for: the pool has no nested dispatch, and a worker waiting
// on nested tasks can deadlock it. The caller sizes every slot buffer a
// task fills.

// 24 ranges split evenly over 1, 2, 3, 4, 6 and 8 slots, and within one
// range of even over any other slot count (util::chunk_bounds).
constexpr std::size_t kMergeRanges = 24;

/// Staged section values per positioned write.
constexpr std::size_t kSectionBufferValues = std::size_t{1} << 14;

/// kMergeRanges + 1 ascending node ids from 0 to the node count: range r
/// holds the pairs whose node lies in [cuts[r], cuts[r + 1]).
using MergeCuts = std::array<std::uint32_t, kMergeRanges + 1>;

MergeCuts merge_cuts(const SpillFile& spill, std::size_t nodes) {
  std::vector<std::uint32_t> firsts;
  firsts.reserve(spill.blocks().size());
  for (const auto& block : spill.blocks()) {
    firsts.push_back(high32(block.first));
  }
  std::sort(firsts.begin(), firsts.end());
  const auto bound = static_cast<std::uint32_t>(nodes);
  MergeCuts cuts{};
  for (std::size_t r = 1; r < kMergeRanges; ++r) {
    cuts[r] = firsts.empty() ? bound
                             : std::min(firsts[firsts.size() * r / kMergeRanges], bound);
  }
  cuts[kMergeRanges] = bound;
  return cuts;
}

/// K-way merge of one key range [lo, hi) of every run of a spill, yielding
/// the range's pairs sorted and distinct. Each run is read a block at a
/// time into a buffer of its own. The caller sizes it (reserve); open()
/// and next() allocate nothing.
class RangeMerge {
 public:
  /// Gives every run of `spill` a source with room for its largest block.
  void reserve(const SpillReader& spill) {
    const auto& runs = spill.runs();
    sources_.resize(runs.size());
    heap_.reserve(runs.size());
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      std::size_t largest = 0;
      for (std::size_t b = 0; b < runs[i].blocks; ++b) {
        largest = std::max(largest, spill.block_bytes(runs[i], b));
      }
      sources_[i].buffer_bytes = largest;
      bytes += largest;
    }
    buffers_.resize(bytes);
    bytes = 0;
    for (auto& source : sources_) {
      source.buffer = std::span<unsigned char>(buffers_).subspan(bytes, source.buffer_bytes);
      bytes += source.buffer_bytes;
    }
  }

  void open(const SpillReader& spill, std::uint64_t lo, std::uint64_t hi) {
    spill_ = &spill;
    heap_.clear();
    hi_ = hi;
    const auto& runs = spill.runs();
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto blocks = spill.blocks(runs[i]);
      if (runs[i].last < lo || blocks.front().first >= hi) {
        continue;  // no pair of the run lies in the range
      }
      // Start at the last block that begins at or below lo: it may hold
      // the range's first pairs.
      const auto after = std::upper_bound(
          blocks.begin(), blocks.end(), lo,
          [](std::uint64_t key, const util::RunBlock& block) { return key < block.first; });
      Source& source = sources_[i];
      source.run = &runs[i];
      source.next_block =
          static_cast<std::size_t>(after - blocks.begin()) - (after == blocks.begin() ? 0 : 1);
      source.cursor = {};
      std::uint64_t value = 0;
      bool more = source.next(spill, value);
      while (more && value < lo) {
        more = source.next(spill, value);
      }
      if (more && value < hi) {
        heap_.push_back({value, i});
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
      if (!sources_[top.source].next(*spill_, top.value) || top.value >= hi_) {
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

  /// One run's reader: decodes its loaded block, then reads the next.
  struct Source {
    std::span<unsigned char> buffer;
    std::size_t buffer_bytes = 0;
    const SpillRun* run = nullptr;
    std::size_t next_block = 0;
    util::RunBlock block;  ///< the loaded block, at offset 0 of the buffer
    util::BlockRunCursor cursor;

    bool next(const SpillReader& spill, std::uint64_t& value) {
      while (!cursor.next(value)) {
        if (next_block == run->blocks) {
          return false;
        }
        const auto bytes = spill.read_block(*run, next_block, buffer);
        block = spill.blocks(*run)[next_block++];
        block.offset = 0;
        cursor = util::BlockRunCursor(bytes, {&block, 1}, 0);
      }
      return true;
    }
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

  const SpillReader* spill_ = nullptr;
  std::vector<Source> sources_;  ///< one per run; each cursor reads its source's block
  StageVector<unsigned char> buffers_;
  std::vector<Entry> heap_;
  std::uint64_t hi_ = 0;
};

/// What one chunk of range tasks uses. Cache-line aligned, so no two
/// chunks write to one line.
struct alignas(64) MergeSlot {
  RangeMerge merge;
  // Second edge merge: per-domain and per-e2LD partial counts, summed
  // over the slots afterwards, and the machine that last counted an e2LD.
  StageVector<std::uint32_t> domain_degree;
  StageVector<std::uint32_t> e2ld_machines;
  StageVector<std::uint32_t> e2ld_stamp;
  // Section writes: values staged for the next positioned write, and the
  // (domain, machine) pairs of machine_targets awaiting a swapped run.
  StageVector<std::uint32_t> section;
  StageVector<std::uint64_t> swapped;
  StageVector<std::uint64_t> swapped_scratch;
  StageVector<char> encoded;
  std::vector<util::RunBlock> run_blocks;
};

/// Sorts one machine range's (domain, machine) pairs, which arrive in
/// machine order, into (domain, machine) order: a stable LSD radix sort on
/// the `domain_bits` low bits of the domain half keeps each domain's
/// machines in arrival order. `scratch` is as large as `pairs`.
void sort_swapped(StageVector<std::uint64_t>& pairs, StageVector<std::uint64_t>& scratch,
                  unsigned domain_bits) {
  constexpr unsigned kDigitBits = 11;
  constexpr std::uint64_t kDigitMask = (std::uint64_t{1} << kDigitBits) - 1;
  std::array<std::uint32_t, std::size_t{1} << kDigitBits> starts{};
  scratch.resize(pairs.size());
  for (unsigned shift = 32; shift < 32 + domain_bits; shift += kDigitBits) {
    starts.fill(0);
    for (const auto pair : pairs) {
      ++starts[(pair >> shift) & kDigitMask];
    }
    std::uint32_t start = 0;
    for (auto& count : starts) {
      start += std::exchange(count, start);
    }
    for (const auto pair : pairs) {
      scratch[starts[(pair >> shift) & kDigitMask]++] = pair;
    }
    pairs.swap(scratch);
  }
}

/// Runs pass(slot, lo, hi) on the shared pool for every merge range
/// [lo, hi) of `cuts`, with slot.merge open on that range of `spill`.
template <typename Pass>
void run_ranges(std::vector<MergeSlot>& slots, const SpillReader& spill, const MergeCuts& cuts,
                Pass&& pass) {
  for (auto& slot : slots) {
    slot.merge.reserve(spill);
  }
  util::parallel_chunks(kMergeRanges, slots.size(),
                        [&](std::size_t s, std::size_t begin, std::size_t end) {
    MergeSlot& slot = slots[s];
    for (std::size_t r = begin; r < end; ++r) {
      slot.merge.open(spill, std::uint64_t{cuts[r]} << 32, std::uint64_t{cuts[r + 1]} << 32);
      pass(slot, cuts[r], cuts[r + 1]);
    }
  });
}

/// Writes one range's slice of a u32 section, staged in a slot buffer and
/// written at the slice's file offset in blocks.
class SliceWriter {
 public:
  SliceWriter(const PositionedFile& file, std::uint64_t offset, StageVector<std::uint32_t>& staged)
      : file_(&file), offset_(offset), staged_(&staged) {
    staged_->clear();
  }

  void push(std::uint32_t value) {
    staged_->push_back(value);
    if (staged_->size() == kSectionBufferValues) {
      flush();
    }
  }

  void flush() {
    const std::size_t bytes = staged_->size() * sizeof(std::uint32_t);
    file_->write_at(offset_, staged_->data(), bytes);
    offset_ += bytes;
    staged_->clear();
  }

 private:
  const PositionedFile* file_;
  std::uint64_t offset_;
  StageVector<std::uint32_t>* staged_;
};

/// Files a prepare creates on its way: the spills and the temporary
/// output. Whatever is still listed when the prepare ends, on success or
/// on failure, is removed.
struct TemporaryFiles {
  std::vector<std::string> paths;
  ~TemporaryFiles() {
    for (const auto& path : paths) {
      std::remove(path.c_str());
    }
  }
};

/// Creates an empty file under a name no other prepare uses — `out_path`
/// plus a process id and a per-process serial — and returns the name.
std::string create_temporary_output(const std::string& out_path) {
  static std::atomic<std::uint64_t> serial{0};
  while (true) {
    std::string path = out_path + ".tmp-" + std::to_string(::getpid()) + "-" +
                       std::to_string(serial.fetch_add(1));
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    if (fd >= 0) {
      ::close(fd);
      return path;
    }
    util::require_data(errno == EEXIST, "oocore: cannot create output file '" + path + "'");
  }
}

// --- scan batches -------------------------------------------------------------
//
// The scan takes the records in batches and resolves each batch in four
// phases:
//
//   A  parallel over row chunks: validate, normalize the qname in place,
//      hash both names, and file each name lookup under its chunk and its
//      dictionary partition (a machine that repeats the previous row's
//      needs no lookup);
//   B  parallel over partitions: worker p resolves partition p's lookups
//      chunk by chunk, so in row order, to entries of its dictionaries,
//      inserting a missing name as a pending entry and listing where it
//      saw it first (with a new domain's e2LD);
//   C  serial, O(new names): merges the partitions' first-sight lists by
//      row and names the pending entries with machine ids, then domain ids
//      (interning e2LDs at domain first sight), in that order, appending
//      each name to its kind's name table;
//   D  parallel over row chunks: emits edge and (domain, IP) pairs, the
//      latter through a filter that drops repeated pairs.
//
// A name's first occurrence in the trace is its first occurrence in the
// first batch that holds it, and phase C visits a batch's first
// occurrences in row order, so ids follow the serial scan's
// first-occurrence order for every partition count and batch size. Phases
// A and D use kScanChunks fixed chunks, each with its own repeat filter,
// so the pairs reaching the spills depend only on the input and the batch
// size, never on the pool size. A batch holds kScanBatchRecords records,
// whether the engine reads a trace (BatchReader) or a stream hands it
// arenas (StreamingPrepare).

constexpr std::size_t kScanChunks = 8;
constexpr std::size_t kMaxPartitions = 64;
constexpr unsigned kRepeatFilterBits = 16;

/// Ids live below this; it is the id of a pending dictionary entry, an
/// empty dictionary slot and, as a domain id, the empty-slot marker of the
/// repeat filter.
constexpr std::uint32_t kNoId = 0xffffffffu;

/// What phase A derives from one row of a batch, in 32 bytes: with its
/// 32-byte dns::ArenaRow, a row costs a batch 64 bytes besides its names
/// and IPs.
struct RowScan {
  std::size_t machine_hash = 0;
  std::size_t domain_hash = 0;
  std::uint32_t machine_lookup = 0;  ///< index into its chunk's machine lookups
  std::uint32_t domain_lookup = 0;   ///< index into its chunk's domain lookups
  std::uint8_t machine_partition = 0;
  std::uint8_t domain_partition = 0;
  bool valid = false;
  bool repeats_machine = false;  ///< same machine as the previous row of its chunk
};
static_assert(kMaxPartitions <= 256, "RowScan keeps a partition in one byte");

/// A scan batch: its records in one flat arena (dns/record_arena.h) and
/// what phase A derives from each row. The containers keep their capacity
/// across batches, so a steady-state batch allocates nothing. Cache-line
/// aligned: the reader fills one batch while the pool resolves the other,
/// and their vector headers must not share a line.
struct alignas(64) Batch {
  dns::RecordArena records;
  StageVector<RowScan> scan;
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

/// The machine, domain or e2LD names of a prepare in id order, each name's
/// bytes held once: one text buffer and each name's end offset.
class NameTable {
 public:
  std::size_t size() const { return ends_.size(); }

  std::string_view operator[](std::size_t id) const {
    const std::uint64_t begin = id == 0 ? 0 : ends_[id - 1];
    return {text_.data() + begin, static_cast<std::size_t>(ends_[id] - begin)};
  }

  void push_back(std::string_view name) {
    text_.insert(text_.end(), name.begin(), name.end());
    ends_.push_back(text_.size());
  }

 private:
  StageVector<char> text_;
  StageVector<std::uint64_t> ends_;
};

/// Slots of a dictionary's first table. A table doubles before an insert
/// would fill more than half of its slots, so probes stay short.
constexpr std::size_t kDictionarySlots = 1024;

/// A dictionary name -> id over names it does not hold: entries in insertion
/// order, each with its name's hash, and an open-addressing table of entry
/// indices probed linearly from the hash's low bits. An entry's index never
/// changes, so the table may grow while phase B hands indices out. The
/// caller's text(entry) gives an entry's name: a pending entry's is its
/// batch row's, a named entry's is in its name table.
class Dictionary {
 public:
  struct Entry {
    std::size_t hash = 0;
    std::uint32_t id = kNoId;  ///< kNoId while pending
    std::uint32_t row = 0;     ///< the batch row of its first sight, while pending
  };

  /// The index of `name`'s entry, and whether this call inserted it, as a
  /// pending entry first seen at `row`.
  template <typename Text>
  std::pair<std::uint32_t, bool> insert(const HashedName& name, std::uint32_t row,
                                        const Text& text) {
    if (2 * (entries_.size() + 1) > slots_.size()) {
      grow();
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = name.hash & mask;
    for (; slots_[s] != kEmptySlot; s = (s + 1) & mask) {
      const Entry& entry = entries_[slots_[s]];
      if (entry.hash == name.hash && text(entry) == name.text) {
        return {slots_[s], false};
      }
    }
    slots_[s] = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back({name.hash, kNoId, row});
    return {slots_[s], true};
  }

  std::uint32_t id(std::uint32_t entry) const { return entries_[entry].id; }

  /// Names a pending entry.
  void assign(std::uint32_t entry, std::uint32_t id) { entries_[entry].id = id; }

 private:
  static constexpr std::uint32_t kEmptySlot = kNoId;

  void grow() {
    slots_.assign(std::max(kDictionarySlots, 2 * slots_.size()), kEmptySlot);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t e = 0; e < entries_.size(); ++e) {
      std::size_t s = entries_[e].hash & mask;
      while (slots_[s] != kEmptySlot) {
        s = (s + 1) & mask;
      }
      slots_[s] = static_cast<std::uint32_t>(e);
    }
  }

  StageVector<Entry> entries_;
  StageVector<std::uint32_t> slots_;
};

/// A phase B lookup: the row whose name it resolves, and the entry of its
/// partition's dictionary.
struct Lookup {
  std::uint32_t row = 0;
  std::uint32_t entry = 0;
};

/// A name's first sight: its row and entry, and for a domain the length of
/// its e2LD (a suffix of the name).
struct FirstSight {
  std::uint32_t row = 0;
  std::uint32_t e2ld_size = 0;
  std::uint32_t entry = 0;
};

std::size_t name_hash(std::string_view name) { return std::hash<std::string_view>{}(name); }

/// The dictionary partition of a name hash: its high bits, which a
/// dictionary's slot index (the low bits) does not use.
std::uint8_t partition_of(std::size_t hash, std::size_t partitions) {
  return static_cast<std::uint8_t>(((static_cast<std::uint64_t>(hash) >> 32) * partitions) >>
                                   32);
}

/// Phase A for row `i`: validity, in-place normalization (strip one
/// trailing dot, lowercase ASCII — DomainName::parse(q).str() for a valid
/// name), the name hashes and partitions. `chunk_start` says the row opens
/// its chunk, so no previous row can lend it a machine.
void prepare_row(Batch& batch, std::size_t i, bool chunk_start, std::size_t partitions) {
  dns::RecordArena& records = batch.records;
  dns::ArenaRow& row = records.rows[i];
  RowScan& scan = batch.scan[i];
  const std::string_view qname = records.qname(row);
  scan.valid = row.machine_size != 0 && dns::DomainName::is_valid(qname);
  if (!scan.valid) {
    return;
  }
  if (qname.back() == '.') {
    --row.qname_size;
  }
  char* text = records.text.data() + row.text + row.machine_size;
  for (std::size_t k = 0; k < row.qname_size; ++k) {
    const bool upper = static_cast<unsigned char>(text[k] - 'A') < 26;
    text[k] = static_cast<char>(text[k] + (upper ? 'a' - 'A' : 0));
  }
  scan.repeats_machine = !chunk_start && batch.scan[i - 1].valid &&
                         records.machine(records.rows[i - 1]) == records.machine(row);
  if (!scan.repeats_machine) {
    scan.machine_hash = name_hash(records.machine(row));
    scan.machine_partition = partition_of(scan.machine_hash, partitions);
  }
  scan.domain_hash = name_hash(records.qname(row));
  scan.domain_partition = partition_of(scan.domain_hash, partitions);
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
  StageVector<FirstSight> machine_first_seen;
  StageVector<FirstSight> domain_first_seen;
};

/// Phase C: calls fn(partition, sight) for every entry of the partitions'
/// `list`s of first sights (each ascending by row), in ascending row order.
template <typename Fn>
void for_each_first_sight(std::vector<DictionaryPartition>& partitions,
                          StageVector<FirstSight> DictionaryPartition::*list,
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
    fn(partitions[best], (partitions[best].*list)[cursors[best]++]);
  }
}

/// Phase A for the chunk of rows [begin, end): prepares its rows, then
/// files each lookup under its partition (a counting sort, so each
/// partition's lookups stay in row order).
void prepare_chunk(Batch& batch, std::size_t begin, std::size_t end, std::size_t partitions,
                   ScanChunk& chunk) {
  PartitionOffsets machine_counts{};
  PartitionOffsets domain_counts{};
  chunk.skipped = 0;
  for (std::size_t i = begin; i < end; ++i) {
    prepare_row(batch, i, i == begin, partitions);
    const RowScan& scan = batch.scan[i];
    if (!scan.valid) {
      ++chunk.skipped;
      continue;
    }
    if (!scan.repeats_machine) {
      ++machine_counts[scan.machine_partition + 1];
    }
    ++domain_counts[scan.domain_partition + 1];
  }
  for (std::size_t p = 0; p < partitions; ++p) {
    machine_counts[p + 1] += machine_counts[p];
    domain_counts[p + 1] += domain_counts[p];
  }
  chunk.machine_offsets = machine_counts;
  chunk.domain_offsets = domain_counts;
  for (std::size_t i = begin; i < end; ++i) {
    RowScan& scan = batch.scan[i];
    if (!scan.valid) {
      continue;
    }
    const auto index = static_cast<std::uint32_t>(i);
    if (!scan.repeats_machine) {
      scan.machine_lookup = machine_counts[scan.machine_partition]++;
      chunk.machine_lookups[scan.machine_lookup] = {index, 0};
    }
    scan.domain_lookup = domain_counts[scan.domain_partition]++;
    chunk.domain_lookups[scan.domain_lookup] = {index, 0};
  }
}


/// Reads a borrowed source into scan batches. With more than one pool
/// worker, a reader thread fills the next batch while the pool resolves the
/// current one; the two batch arenas are recycled. With one worker, next()
/// reads inline, so a one-thread prepare runs on one thread. The reader
/// checks that the records share one day — `day` when given, else the
/// first record's; next() rethrows its errors.
class BatchReader {
 public:
  BatchReader(dns::TraceSource& source, std::optional<dns::Day> day, bool read_ahead)
      : source_(&source), day_(day.value_or(0)), day_fixed_(day.has_value()) {
    for (auto& batch : batches_) {
      batch.records.rows.reserve(kScanBatchRecords);
    }
    if (read_ahead) {
      reader_ = std::thread([this] { read_ahead_loop(); });
    }
  }

  ~BatchReader() {
    if (reader_.joinable()) {
      {
        std::lock_guard lock(mutex_);
        stop_ = true;
      }
      cv_.notify_all();
      reader_.join();
    }
  }

  BatchReader(const BatchReader&) = delete;
  BatchReader& operator=(const BatchReader&) = delete;

  /// The next batch, empty once the trace is exhausted. The batch is the
  /// caller's until the next call.
  Batch& next() {
    obs::Span wait_span("oocore/scan/read-wait");
    if (!reader_.joinable()) {
      fill(batches_[0]);
      return batches_[0];
    }
    const std::size_t k = served_++;
    std::unique_lock lock(mutex_);
    if (k > 0) {
      ready_[(k - 1) % 2] = false;  // hand the previous batch back
      cv_.notify_all();
    }
    cv_.wait(lock, [&] { return error_ != nullptr || ready_[k % 2]; });
    if (error_ != nullptr) {
      std::rethrow_exception(error_);
    }
    return batches_[k % 2];
  }

  /// The trace's day: the one given, else that of its first record.
  dns::Day day() const { return day_; }

 private:
  void fill(Batch& batch) {
    batch.records.clear();
    while (batch.records.size() < kScanBatchRecords && !exhausted_) {
      if (!source_->next(record_)) {
        exhausted_ = true;
        break;
      }
      if (!day_fixed_) {
        day_ = record_.day;  // the first record's day
        day_fixed_ = true;
      } else if (record_.day != day_) [[unlikely]] {
        throw util::ParseError("oocore: trace spans more than one day (day " +
                               std::to_string(record_.day) + " after day " +
                               std::to_string(day_) + ")");
      }
      batch.records.add(record_);
    }
  }

  // The reader thread: fills batch k % 2 once the caller has handed it
  // back, until it fills an empty one.
  void read_ahead_loop() {
    try {
      for (std::size_t k = 0;; ++k) {
        {
          std::unique_lock lock(mutex_);
          cv_.wait(lock, [&] { return stop_ || !ready_[k % 2]; });
          if (stop_) {
            return;
          }
        }
        Batch& batch = batches_[k % 2];
        fill(batch);
        {
          std::lock_guard lock(mutex_);
          ready_[k % 2] = true;
        }
        cv_.notify_all();
        if (batch.records.empty()) {
          return;
        }
      }
    } catch (...) {
      {
        std::lock_guard lock(mutex_);
        error_ = std::current_exception();
      }
      cv_.notify_all();
    }
  }

  std::array<Batch, 2> batches_;
  // The reader's state, on lines of its own.
  alignas(64) dns::TraceSource* source_;
  dns::QueryRecord record_;
  dns::Day day_;
  bool day_fixed_;
  bool exhausted_ = false;
  // The hand-off.
  alignas(64) std::mutex mutex_;
  std::condition_variable cv_;
  std::array<bool, 2> ready_{};
  bool stop_ = false;
  std::exception_ptr error_;
  std::size_t served_ = 0;
  std::thread reader_;
};

/// Lists `path` in `temporary`, for removal when the prepare ends, and
/// returns it.
std::string listed(TemporaryFiles& temporary, std::string path) {
  temporary.paths.push_back(path);
  return path;
}

const OutOfCoreConfig& checked(const OutOfCoreConfig& config) {
  util::require(config.chunk_records > 0, "oocore: chunk_records must be positive");
  const auto& pruning = config.pruning;
  util::require(pruning.proxy_degree_percentile > 0.0 && pruning.proxy_degree_percentile <= 1.0,
                "oocore: proxy_degree_percentile must be in (0, 1]");
  util::require(pruning.popular_e2ld_fraction > 0.0 && pruning.popular_e2ld_fraction <= 1.0,
                "oocore: popular_e2ld_fraction must be in (0, 1]");
  const auto& prober_filter = config.prober_filter;
  util::require(!prober_filter || (prober_filter->min_blacklisted_ratio > 0.0 &&
                                   prober_filter->min_blacklisted_ratio <= 1.0),
                "oocore: prober min_blacklisted_ratio must be in (0, 1]");
  return config;
}

/// One prepare: the scan state, fed one batch at a time, and the passes
/// after the scan. Every entry point runs on it — prepare() feeds it the
/// batches a BatchReader reads, StreamingPrepare the batches it assembles
/// from a stream's arenas. The temporary output and the spills are removed
/// when the engine goes, unless finish() renamed the output.
class Engine {
 public:
  Engine(const dns::PublicSuffixList& psl, std::string out_path, const OutOfCoreConfig& config)
      : config_(checked(config)),
        psl_(&psl),
        out_path_(std::move(out_path)),
        temp_path_(listed(temporary_, create_temporary_output(out_path_))),
        partitions_(std::min(util::parallelism(), kMaxPartitions)),
        dictionaries_(partitions_),
        chunks_(kScanChunks),
        // The spill files are listed before they exist, so a failed create
        // is cleaned up too.
        edge_spill_(listed(temporary_, temp_path_ + ".spill-edges"), config_.chunk_records),
        ip_spill_(listed(temporary_, temp_path_ + ".spill-ips"), config_.chunk_records) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Phases A-D over one batch (see "scan batches" above): machine/domain/
  /// e2LD ids are assigned by first occurrence, exactly as
  /// GraphBuilder::add_query assigns them; edge and IP pairs go to sorted
  /// compressed spill runs.
  void scan(Batch& batch);

  /// The scan's last step: closes the spills and frees the dictionaries.
  void end_scan();

  /// The passes after the scan; writes the graph of `day` to the output
  /// path. `scan_seconds` is what the caller's "oocore/scan" spans took.
  /// Call once: it takes the scan's state.
  OutOfCoreResult finish(dns::Day day, double scan_seconds, const NameSet& cc_blacklist,
                         const NameSet& e2ld_whitelist);

 private:
  TemporaryFiles temporary_;  // first, so it outlives every open file
  OutOfCoreConfig config_;
  const dns::PublicSuffixList* psl_;
  std::string out_path_;
  std::string temp_path_;
  std::size_t partitions_;
  std::vector<DictionaryPartition> dictionaries_;
  std::vector<ScanChunk> chunks_;
  std::vector<std::size_t> merge_cursors_;
  NameTable machine_names_;
  NameTable domain_names_;
  Dictionary e2ld_ids_;  ///< over e2ld_names_, never pending
  NameTable e2ld_names_;
  std::vector<E2ldId> domain_e2ld_;
  SpillWriter edge_spill_;
  SpillWriter ip_spill_;
  OutOfCoreResult result_;
};

void Engine::scan(Batch& batch) {
  dns::RecordArena& records = batch.records;
  const auto& rows = records.rows;
  const std::size_t n = rows.size();
  batch.scan.resize(n);
  result_.records += n;

  // A: validate, normalize, hash, and file the lookups. The caller sizes
  // every buffer a worker fills; the dictionaries and first-sight lists
  // that grow in phase B are anonymous mappings, so pool threads take
  // nothing from malloc.
  for (std::size_t c = 0; c < kScanChunks; ++c) {
    const auto [begin, end] = scan_chunk(n, c);
    chunks_[c].machine_lookups.resize(end - begin);
    chunks_[c].domain_lookups.resize(end - begin);
  }
  util::parallel_for(kScanChunks, [&](std::size_t c) {
    const auto [begin, end] = scan_chunk(n, c);
    prepare_chunk(batch, begin, end, partitions_, chunks_[c]);
  });
  for (const auto& chunk : chunks_) {
    result_.skipped_records += chunk.skipped;
  }

  // B: resolve partition p's lookups, chunk by chunk, so in row order. An
  // entry still pending was first seen in this batch.
  util::parallel_for(partitions_, [&](std::size_t p) {
    auto& dictionary = dictionaries_[p];
    dictionary.machine_first_seen.clear();
    dictionary.domain_first_seen.clear();
    const auto machine_text = [&](const Dictionary::Entry& entry) {
      return entry.id == kNoId ? records.machine(rows[entry.row]) : machine_names_[entry.id];
    };
    const auto domain_text = [&](const Dictionary::Entry& entry) {
      return entry.id == kNoId ? records.qname(rows[entry.row]) : domain_names_[entry.id];
    };
    for (auto& chunk : chunks_) {
      for (auto i = chunk.machine_offsets[p]; i < chunk.machine_offsets[p + 1]; ++i) {
        Lookup& lookup = chunk.machine_lookups[i];
        const HashedName name{records.machine(rows[lookup.row]),
                              batch.scan[lookup.row].machine_hash};
        const auto [entry, inserted] = dictionary.machines.insert(name, lookup.row, machine_text);
        lookup.entry = entry;
        if (inserted) {
          dictionary.machine_first_seen.push_back({lookup.row, 0, entry});
        }
      }
      for (auto i = chunk.domain_offsets[p]; i < chunk.domain_offsets[p + 1]; ++i) {
        Lookup& lookup = chunk.domain_lookups[i];
        const HashedName name{records.qname(rows[lookup.row]),
                              batch.scan[lookup.row].domain_hash};
        const auto [entry, inserted] = dictionary.domains.insert(name, lookup.row, domain_text);
        lookup.entry = entry;
        if (inserted) {
          const auto e2ld_size = static_cast<std::uint32_t>(psl_->e2ld_or_self(name.text).size());
          dictionary.domain_first_seen.push_back({lookup.row, e2ld_size, entry});
        }
      }
    }
  });

  // C: first-occurrence ids in row order.
  for_each_first_sight(dictionaries_, &DictionaryPartition::machine_first_seen, merge_cursors_,
                       [&](DictionaryPartition& partition, const FirstSight& sight) {
    util::require_data(machine_names_.size() < kNoId, "oocore: too many machines");
    partition.machines.assign(sight.entry, static_cast<MachineId>(machine_names_.size()));
    machine_names_.push_back(records.machine(rows[sight.row]));
  });
  const auto e2ld_text = [&](const Dictionary::Entry& entry) { return e2ld_names_[entry.id]; };
  for_each_first_sight(dictionaries_, &DictionaryPartition::domain_first_seen, merge_cursors_,
                       [&](DictionaryPartition& partition, const FirstSight& sight) {
    util::require_data(domain_names_.size() < kNoId, "oocore: too many domains");
    partition.domains.assign(sight.entry, static_cast<DomainId>(domain_names_.size()));
    const std::string_view name = records.qname(rows[sight.row]);
    domain_names_.push_back(name);
    // e2LDs intern at domain first occurrence — the same sequence the
    // in-memory builder produces by iterating domains in id order.
    const std::string_view e2ld = name.substr(name.size() - sight.e2ld_size);
    const auto [entry, inserted] = e2ld_ids_.insert({e2ld, name_hash(e2ld)}, 0, e2ld_text);
    if (inserted) {
      e2ld_ids_.assign(entry, static_cast<E2ldId>(e2ld_names_.size()));
      e2ld_names_.push_back(e2ld);
    }
    domain_e2ld_.push_back(e2ld_ids_.id(entry));
  });

  // D: emit pairs into per-chunk buffers reserved here, then hand them to
  // the spills in chunk order.
  for (std::size_t c = 0; c < kScanChunks; ++c) {
    const auto [begin, end] = scan_chunk(n, c);
    chunks_[c].edges.clear();
    chunks_[c].edges.reserve(end - begin);
    chunks_[c].ips.clear();
    if (begin < end) {
      chunks_[c].ips.reserve(rows[end - 1].ips + rows[end - 1].ip_count - rows[begin].ips);
    }
  }
  const DictionaryPartition* dictionaries = dictionaries_.data();
  util::parallel_for(kScanChunks, [&](std::size_t c) {
    const auto [begin, end] = scan_chunk(n, c);
    auto& chunk = chunks_[c];
    std::uint64_t m = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const RowScan& scan = batch.scan[i];
      if (!scan.valid) {
        continue;
      }
      if (!scan.repeats_machine) {
        m = dictionaries[scan.machine_partition].machines.id(
            chunk.machine_lookups[scan.machine_lookup].entry);
      }
      const std::uint64_t d = dictionaries[scan.domain_partition].domains.id(
          chunk.domain_lookups[scan.domain_lookup].entry);
      chunk.edges.push_back((m << 32) | d);
      for (const auto ip : records.row_ips(rows[i])) {
        const std::uint64_t pair = (d << 32) | ip.value();
        if (chunk.ip_filter.admit(pair)) {
          chunk.ips.push_back(pair);
        }
      }
    }
  });
  for (const auto& chunk : chunks_) {
    edge_spill_.append(chunk.edges);
    ip_spill_.append(chunk.ips);
  }
}

void Engine::end_scan() {
  edge_spill_.finish();
  ip_spill_.finish();
  dictionaries_ = {};
  chunks_ = {};
  e2ld_ids_ = {};
  const SpillFile& edge_file = edge_spill_.file();
  const SpillFile& ip_file = ip_spill_.file();
  result_.spill_segments = edge_file.runs().size() + ip_file.runs().size();
  result_.spill_bytes = edge_file.bytes() + ip_file.bytes();
}

OutOfCoreResult Engine::finish(dns::Day day, double scan_seconds, const NameSet& cc_blacklist,
                               const NameSet& e2ld_whitelist) {
  // The passes read the scan's state as locals, not through `this`: with
  // members, "oocore/write" ran 5-8% slower (docs/performance.md).
  const PruningConfig pruning = config_.pruning;
  const std::optional<ProberFilterConfig> prober_filter = config_.prober_filter;
  const std::size_t chunk_records = config_.chunk_records;
  OutOfCoreResult result = result_;
  result.scan_seconds = scan_seconds;
  const NameTable machine_names = std::move(machine_names_);
  const NameTable domain_names = std::move(domain_names_);
  const NameTable e2ld_names = std::move(e2ld_names_);
  const std::vector<E2ldId> domain_e2ld = std::move(domain_e2ld_);
  const std::string temp_path = temp_path_;
  const std::string out_path = out_path_;
  const SpillFile& edge_file = edge_spill_.file();
  const SpillFile& ip_file = ip_spill_.file();

  const std::size_t nm = machine_names.size();
  const std::size_t nd = domain_names.size();
  const std::size_t ne = e2ld_names.size();
  PruneStats& stats = result.prune_stats;
  stats.domains_before = nd;
  std::vector<MergeSlot> slots(std::min(util::parallelism(), kMergeRanges));

  // --- Labels (apply_labels semantics): domains from the lists, machines
  // derived from their distinct-domain label counts during the first edge
  // merge, which also yields the unpruned machine degrees for R1/R2 and,
  // with a prober filter, the prober flags (detect_probers semantics).
  obs::Span label_span("oocore/labels");
  std::vector<Label> domain_labels(nd, Label::kUnknown);
  util::parallel_chunks(nd, 0, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t d = begin; d < end; ++d) {
      if (cc_blacklist.contains(domain_names[d])) {
        domain_labels[d] = Label::kMalware;
      } else if (e2ld_whitelist.contains(e2ld_names[domain_e2ld[d]])) {
        domain_labels[d] = Label::kBenign;
      }
    }
  });

  const SpillReader edges(edge_file);
  const MergeCuts machine_cuts = merge_cuts(edge_file, nm);
  std::vector<std::uint64_t> degrees(nm, 0);
  std::vector<Label> machine_labels(nm, Label::kUnknown);
  std::vector<std::uint8_t> probers(prober_filter ? nm : 0, 0);
  run_ranges(slots, edges, machine_cuts, [&](MergeSlot& slot, std::uint32_t, std::uint32_t) {
    std::uint64_t pair = 0;
    bool more = slot.merge.next(pair);
    while (more) {
      const auto m = high32(pair);
      std::size_t degree = 0;
      std::size_t malware = 0;
      std::size_t benign = 0;
      do {
        const Label label = domain_labels[low32(pair)];
        ++degree;
        malware += label == Label::kMalware ? 1 : 0;
        benign += label == Label::kBenign ? 1 : 0;
      } while ((more = slot.merge.next(pair)) && high32(pair) == m);
      degrees[m] = degree;
      machine_labels[m] = derive_machine_label(degree, malware, benign);
      if (prober_filter) {
        probers[m] = is_prober(*prober_filter, degree, malware) ? 1 : 0;
      }
    }
  });
  for (const auto degree : degrees) {
    result.edges += degree;
  }
  result.label_seconds = label_span.close();
  obs::Registry::instance().counter("seg_build_records_total").add(result.records);
  obs::Registry::instance().counter("seg_build_edges_total").add(result.edges);

  // --- The prober mask (remove_probers semantics): a prober leaves the
  // graph before pruning, so no rule, threshold or count below sees it.
  std::vector<std::uint8_t> keep_machine(nm, 1);
  stats.machines_before = nm;
  stats.edges_before = result.edges;
  if (prober_filter) {
    obs::Span prober_span("oocore/probers");
    for (MachineId m = 0; m < nm; ++m) {
      if (probers[m] != 0) {
        keep_machine[m] = 0;
        --stats.machines_before;
        stats.edges_before -= degrees[m];
      }
    }
    probers = {};
    result.prober_seconds = prober_span.close();
  }

  // --- R1 + R2 (same arithmetic as prune()), over the machines the
  // prober mask kept.
  obs::Span masks_span("oocore/prune-masks");
  std::uint64_t theta_d = std::numeric_limits<std::uint64_t>::max();
  if (stats.machines_before > 0) {
    std::vector<std::uint64_t> ranked;
    ranked.reserve(stats.machines_before);
    for (MachineId m = 0; m < nm; ++m) {
      if (keep_machine[m] != 0) {
        ranked.push_back(degrees[m]);
      }
    }
    const auto rank = static_cast<std::size_t>(
        std::ceil(pruning.proxy_degree_percentile * static_cast<double>(ranked.size())));
    const std::size_t index = std::min(rank == 0 ? 0 : rank - 1, ranked.size() - 1);
    std::nth_element(ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(index),
                     ranked.end());
    theta_d = ranked[index];
    theta_d = std::max<std::uint64_t>(theta_d, pruning.inactive_machine_max_degree + 2);
  }
  stats.theta_d = theta_d;

  for (MachineId m = 0; m < nm; ++m) {
    if (keep_machine[m] == 0) {
      continue;  // a prober
    }
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
  degrees = {};

  // --- Second edge merge: domain degrees over kept machines, plus distinct
  // kept machines per e2LD. A machine's pairs are contiguous, so it counts
  // each of its e2LDs once through the slot's stamp array.
  for (auto& slot : slots) {
    slot.domain_degree.assign(nd, 0);
    slot.e2ld_machines.assign(ne, 0);
    slot.e2ld_stamp.assign(ne, kNoId);
  }
  run_ranges(slots, edges, machine_cuts, [&](MergeSlot& slot, std::uint32_t, std::uint32_t) {
    std::uint64_t pair = 0;
    bool more = slot.merge.next(pair);
    while (more) {
      const auto m = high32(pair);
      const bool kept = keep_machine[m] != 0;
      do {
        if (kept) {
          const auto d = low32(pair);
          ++slot.domain_degree[d];
          const auto e = domain_e2ld[d];
          if (slot.e2ld_stamp[e] != m) {
            slot.e2ld_stamp[e] = m;
            ++slot.e2ld_machines[e];
          }
        }
      } while ((more = slot.merge.next(pair)) && high32(pair) == m);
    }
  });
  std::vector<std::uint32_t> domain_degree(nd, 0);
  std::vector<std::uint32_t> e2ld_machines(ne, 0);
  util::parallel_chunks(nd, 0, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (const auto& slot : slots) {
      for (std::size_t d = begin; d < end; ++d) {
        domain_degree[d] += slot.domain_degree[d];
      }
    }
  });
  util::parallel_chunks(ne, 0, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (const auto& slot : slots) {
      for (std::size_t e = begin; e < end; ++e) {
        e2ld_machines[e] += slot.e2ld_machines[e];
      }
    }
  });
  for (auto& slot : slots) {
    slot.domain_degree = {};
    slot.e2ld_machines = {};
    slot.e2ld_stamp = {};
  }

  // --- R3 + R4.
  const auto theta_m = static_cast<std::uint64_t>(
      std::ceil(pruning.popular_e2ld_fraction * static_cast<double>(stats.machines_before)));
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
  e2ld_machines = {};

  // --- Dense remaps and the pruned node-level tables (prune_impl
  // semantics: names/labels carried over, e2LDs re-interned in surviving
  // domain order). A node's rank counts the kept nodes before it: a kept
  // node's new id, and where a range of old ids starts among the kept.
  std::vector<MachineId> machine_rank(nm + 1, 0);
  std::vector<MachineId> kept_machines;
  for (MachineId m = 0; m < nm; ++m) {
    machine_rank[m] = static_cast<MachineId>(kept_machines.size());
    if (keep_machine[m] != 0) {
      kept_machines.push_back(m);
    }
  }
  machine_rank[nm] = static_cast<MachineId>(kept_machines.size());
  std::vector<DomainId> domain_rank(nd + 1, 0);
  std::vector<DomainId> kept_domains;
  for (DomainId d = 0; d < nd; ++d) {
    domain_rank[d] = static_cast<DomainId>(kept_domains.size());
    if (keep_domain[d] != 0) {
      kept_domains.push_back(d);
    }
  }
  domain_rank[nd] = static_cast<DomainId>(kept_domains.size());
  const std::size_t nm_new = kept_machines.size();
  const std::size_t nd_new = kept_domains.size();
  stats.machines_after = nm_new;
  stats.domains_after = nd_new;

  // Distinct e2LD ids name distinct e2LDs, so re-interning by old id is
  // re-interning by name. kept_e2lds lists the old ids in new id order.
  std::vector<E2ldId> e2ld_remap(ne, kNoId);
  std::vector<E2ldId> kept_e2lds;
  std::vector<E2ldId> new_domain_e2ld;
  new_domain_e2ld.reserve(nd_new);
  for (const auto d : kept_domains) {
    const E2ldId e = domain_e2ld[d];
    if (e2ld_remap[e] == kNoId) {
      e2ld_remap[e] = static_cast<E2ldId>(kept_e2lds.size());
      kept_e2lds.push_back(e);
    }
    new_domain_e2ld.push_back(e2ld_remap[e]);
  }
  e2ld_remap = {};
  masks_span.close();

  // --- Third edge merge: surviving CSR shape, which fixes every header
  // count and section offset before any output byte. Only the machine
  // side needs the merge: a kept domain's CSR degree is its kept-machine
  // degree from the second merge.
  obs::Span write_span("oocore/write");
  obs::Span shape_span("oocore/write/shape");
  std::vector<std::uint64_t> machine_offsets(nm_new + 1, 0);
  run_ranges(slots, edges, machine_cuts, [&](MergeSlot& slot, std::uint32_t, std::uint32_t) {
    std::uint64_t pair = 0;
    while (slot.merge.next(pair)) {
      const auto m = high32(pair);
      if (keep_machine[m] != 0 && keep_domain[low32(pair)] != 0) {
        ++machine_offsets[machine_rank[m] + 1];
      }
    }
  });
  for (std::size_t i = 1; i <= nm_new; ++i) {
    machine_offsets[i] += machine_offsets[i - 1];
  }
  std::vector<std::uint64_t> domain_offsets(nd_new + 1, 0);
  for (std::size_t i = 0; i < nd_new; ++i) {
    domain_offsets[i + 1] = domain_offsets[i] + domain_degree[kept_domains[i]];
  }
  domain_degree = {};
  const std::uint64_t edges_after = machine_offsets.back();
  util::require(domain_offsets.back() == edges_after, "oocore: CSR sides disagree");
  stats.edges_after = edges_after;
  shape_span.close();

  // --- First IP merge: surviving per-domain IP-set sizes.
  obs::Span ip_counts_span("oocore/write/ip-counts");
  const SpillReader ips(ip_file);
  const MergeCuts domain_cuts = merge_cuts(ip_file, nd);
  std::vector<std::uint64_t> ip_offsets(nd_new + 1, 0);
  run_ranges(slots, ips, domain_cuts, [&](MergeSlot& slot, std::uint32_t, std::uint32_t) {
    std::uint64_t pair = 0;
    while (slot.merge.next(pair)) {
      const auto d = high32(pair);
      if (keep_domain[d] != 0) {
        ++ip_offsets[domain_rank[d] + 1];
      }
    }
  });
  for (std::size_t i = 1; i <= nd_new; ++i) {
    ip_offsets[i] += ip_offsets[i - 1];
  }
  const std::uint64_t ips_after = ip_offsets.back();
  ip_counts_span.close();

  // --- The packed graphc file: every section but the three CSR target
  // sections is written in order here; those are left as gaps that the
  // range tasks below fill with positioned writes, each range at the
  // offset its CSR prefix sums fix.
  obs::Span sections_span("oocore/write/sections");
  detail::GraphcCounts counts;
  counts.day = day;
  counts.machines = nm_new;
  counts.domains = nd_new;
  counts.e2lds = kept_e2lds.size();
  counts.edges = edges_after;
  counts.ips = ips_after;
  for (const auto m : kept_machines) {
    counts.machine_name_bytes += machine_names[m].size();
  }
  for (const auto d : kept_domains) {
    counts.domain_name_bytes += domain_names[d].size();
  }
  for (const auto e : kept_e2lds) {
    counts.e2ld_name_bytes += e2ld_names[e].size();
  }

  std::uint64_t machine_targets_at = 0;
  std::uint64_t domain_targets_at = 0;
  std::uint64_t ip_values_at = 0;
  {
    std::ofstream out(temp_path, std::ios::binary);
    util::require_data(out.is_open(), "oocore: cannot create output file '" + temp_path + "'");
    detail::PackedGraphcWriter writer(out, counts);
    writer.name_table(nm_new, [&](std::size_t i) { return machine_names[kept_machines[i]]; });
    writer.name_table(nd_new, [&](std::size_t i) { return domain_names[kept_domains[i]]; });
    writer.name_table(kept_e2lds.size(), [&](std::size_t i) { return e2ld_names[kept_e2lds[i]]; });
    const auto section = [&writer](const auto& values) {
      writer.bytes(values.data(), values.size() * sizeof(values[0]));
      writer.pad8();
    };
    const auto gap = [&writer](std::uint64_t values) {
      const std::uint64_t at = writer.reserve_section(values * sizeof(std::uint32_t));
      writer.pad8();
      return at;
    };
    section(new_domain_e2ld);
    section(machine_offsets);
    machine_targets_at = gap(edges_after);
    section(domain_offsets);
    domain_targets_at = gap(edges_after);
    section(ip_offsets);
    ip_values_at = gap(ips_after);
    std::vector<Label> pruned(nm_new);
    for (std::size_t i = 0; i < nm_new; ++i) {
      pruned[i] = machine_labels[kept_machines[i]];
    }
    section(pruned);
    pruned.resize(nd_new);
    for (std::size_t i = 0; i < nd_new; ++i) {
      pruned[i] = domain_labels[kept_domains[i]];
    }
    section(pruned);
    writer.finish();
    util::close_output(out, temp_path);
  }
  PositionedFile output(temp_path, O_WRONLY);
  sections_span.close();

  // machine_targets: the fourth edge merge writes each machine range's
  // slice and passes its (domain, machine) pairs, in new ids, to the
  // swapped spill as sorted runs of at most swapped_run pairs.
  obs::Span machine_targets_span("oocore/write/machine-targets");
  const std::size_t swapped_run = std::max(kBlockPairs, chunk_records / kMergeRanges);
  temporary_.paths.push_back(temp_path + ".spill-swapped");
  SpillFile swapped(temp_path + ".spill-swapped");
  {
    const std::size_t runs = edges_after / swapped_run + kMergeRanges;
    swapped.reserve(runs, edges_after / kBlockPairs + runs);
  }
  for (auto& slot : slots) {
    slot.section.reserve(kSectionBufferValues);
    slot.swapped.reserve(swapped_run);
    slot.swapped_scratch.reserve(swapped_run);
    slot.encoded.reserve(swapped_run * util::kMaxVarintBytes);
    slot.run_blocks.reserve(swapped_run / kBlockPairs + 1);
  }
  const auto domain_bits = static_cast<unsigned>(std::bit_width(nd_new));
  const auto write_swapped = [&swapped, domain_bits](MergeSlot& slot) {
    sort_swapped(slot.swapped, slot.swapped_scratch, domain_bits);
    swapped.write_run(slot.swapped, slot.encoded, slot.run_blocks);
    slot.swapped.clear();
  };
  run_ranges(slots, edges, machine_cuts, [&](MergeSlot& slot, std::uint32_t lo, std::uint32_t) {
    const std::uint64_t first = machine_offsets[machine_rank[lo]];
    SliceWriter targets(output, machine_targets_at + sizeof(DomainId) * first, slot.section);
    std::uint64_t pair = 0;
    while (slot.merge.next(pair)) {
      const auto m = high32(pair);
      const auto d = low32(pair);
      if (keep_machine[m] == 0 || keep_domain[d] == 0) {
        continue;
      }
      targets.push(domain_rank[d]);
      slot.swapped.push_back((static_cast<std::uint64_t>(domain_rank[d]) << 32) |
                             machine_rank[m]);
      if (slot.swapped.size() == swapped_run) {
        write_swapped(slot);
      }
    }
    targets.flush();
    write_swapped(slot);
  });
  swapped.finish();
  for (auto& slot : slots) {
    slot.swapped = {};
    slot.swapped_scratch = {};
    slot.encoded = {};
  }
  machine_targets_span.close();

  // domain_targets: the swapped merge, by ranges of new domain ids.
  {
    obs::Span domain_targets_span("oocore/write/domain-targets");
    const SpillReader swapped_pairs(swapped);
    const MergeCuts cuts = merge_cuts(swapped, nd_new);
    run_ranges(slots, swapped_pairs, cuts,
               [&](MergeSlot& slot, std::uint32_t lo, std::uint32_t hi) {
      SliceWriter targets(output, domain_targets_at + sizeof(MachineId) * domain_offsets[lo],
                          slot.section);
      std::uint64_t pair = 0;
      std::uint64_t written = 0;
      while (slot.merge.next(pair)) {
        targets.push(low32(pair));
        ++written;
      }
      targets.flush();
      util::require(written == domain_offsets[hi] - domain_offsets[lo],
                    "oocore: swapped edge stream lost pairs");
    });
  }

  // resolved IPs: the second IP merge.
  obs::Span ips_span("oocore/write/ips");
  run_ranges(slots, ips, domain_cuts, [&](MergeSlot& slot, std::uint32_t lo, std::uint32_t) {
    SliceWriter values(output, ip_values_at + sizeof(std::uint32_t) * ip_offsets[domain_rank[lo]],
                       slot.section);
    std::uint64_t pair = 0;
    while (slot.merge.next(pair)) {
      if (keep_domain[high32(pair)] != 0) {
        values.push(low32(pair));
      }
    }
    values.flush();
  });
  ips_span.close();

  obs::Span close_span("oocore/write/close");
  output.close();
  util::require_data(std::rename(temp_path.c_str(), out_path.c_str()) == 0,
                     "oocore: cannot rename the output to '" + out_path + "'");
  temporary_.paths.erase(temporary_.paths.begin());  // renamed: nothing to remove
  close_span.close();
  write_span.close();
  return result;
}

/// The trace entry points: `day_of_trace`, when set, is the day every
/// record must carry and the graph's day. The whole scan, the reads
/// included, is one "oocore/scan" span.
OutOfCoreResult prepare(dns::TraceSource& source, std::optional<dns::Day> day_of_trace,
                        const dns::PublicSuffixList& psl, const NameSet& cc_blacklist,
                        const NameSet& e2ld_whitelist, const std::string& out_path,
                        const OutOfCoreConfig& config) {
  Engine engine(psl, out_path, config);
  obs::Span scan_span("oocore/scan");
  dns::Day day = 0;
  {
    BatchReader reader(source, day_of_trace, util::parallelism() > 1);
    for (Batch* batch = &reader.next(); !batch->records.empty(); batch = &reader.next()) {
      engine.scan(*batch);
    }
    day = reader.day();
  }
  engine.end_scan();
  return engine.finish(day, scan_span.close(), cc_blacklist, e2ld_whitelist);
}

}  // namespace

struct StreamingPrepare::State {
  State(dns::Day day, const dns::PublicSuffixList& psl, std::string out_path,
        const OutOfCoreConfig& config)
      : engine(psl, std::move(out_path), config), day(day) {
    batch.records.rows.reserve(kScanBatchRecords);
  }

  /// Scans the pending batch in an "oocore/scan" span of its own.
  void scan(bool last) {
    obs::Span span("oocore/scan");
    if (!batch.records.empty()) {
      engine.scan(batch);
      batch.records.clear();
    }
    if (last) {
      batch = {};
      engine.end_scan();
    }
    scan_seconds += span.close();
  }

  Engine engine;
  Batch batch;  ///< the records of the scan batch being assembled
  dns::Day day;
  double scan_seconds = 0.0;
};

StreamingPrepare::StreamingPrepare(dns::Day day, const dns::PublicSuffixList& psl,
                                   std::string out_path, const OutOfCoreConfig& config)
    : state_(std::make_unique<State>(day, psl, std::move(out_path), config)) {}

StreamingPrepare::~StreamingPrepare() = default;

void StreamingPrepare::add(const dns::RecordArena& arena) {
  util::require(state_ != nullptr, "StreamingPrepare::add: the prepare has finished");
  util::require(arena.empty() || arena.day == state_->day,
                "StreamingPrepare::add: an arena of another day");
  dns::RecordArena& pending = state_->batch.records;
  for (std::size_t first = 0; first < arena.size();) {
    const std::size_t take =
        std::min(arena.size() - first, kScanBatchRecords - pending.size());
    pending.append(arena, first, take);
    first += take;
    if (pending.size() == kScanBatchRecords) {
      state_->scan(false);
    }
  }
}

OutOfCoreResult StreamingPrepare::finish(const NameSet& cc_blacklist,
                                         const NameSet& e2ld_whitelist) {
  util::require(state_ != nullptr, "StreamingPrepare::finish: called twice");
  state_->scan(true);
  OutOfCoreResult result =
      state_->engine.finish(state_->day, state_->scan_seconds, cc_blacklist, e2ld_whitelist);
  state_.reset();  // removes the spills
  return result;
}

double StreamingPrepare::scan_seconds() const {
  return state_ != nullptr ? state_->scan_seconds : 0.0;
}

OutOfCoreResult prepare_graph_out_of_core(dns::TraceSource& source,
                                          const dns::PublicSuffixList& psl,
                                          const NameSet& cc_blacklist,
                                          const NameSet& e2ld_whitelist,
                                          const std::string& out_path,
                                          const OutOfCoreConfig& config) {
  return prepare(source, std::nullopt, psl, cc_blacklist, e2ld_whitelist, out_path, config);
}

OutOfCoreResult prepare_graph_out_of_core(const std::string& trace_path,
                                          const dns::PublicSuffixList& psl,
                                          const NameSet& cc_blacklist,
                                          const NameSet& e2ld_whitelist,
                                          const std::string& out_path,
                                          const OutOfCoreConfig& config) {
  dns::FileTraceSource source(trace_path);
  return prepare(source, std::nullopt, psl, cc_blacklist, e2ld_whitelist, out_path, config);
}

OutOfCoreResult prepare_graph_out_of_core(const dns::DayTrace& trace,
                                          const dns::PublicSuffixList& psl,
                                          const NameSet& cc_blacklist,
                                          const NameSet& e2ld_whitelist,
                                          const std::string& out_path,
                                          const OutOfCoreConfig& config) {
  dns::DayTraceSource source(trace);
  return prepare(source, trace.day, psl, cc_blacklist, e2ld_whitelist, out_path, config);
}

}  // namespace seg::graph

