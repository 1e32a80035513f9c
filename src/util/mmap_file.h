// Read-only memory-mapped files and anonymous stage buffers — the
// project's single mmap wrapper.
//
// All raw mmap/munmap/madvise calls in the tree live in mmap_file.cpp
// (enforced by seg-lint rule R-MEM1): mapping lifetime bugs and page
// release are concentrated in one reviewed translation unit.
//
// File mappings are private and read-only. A reader that walks a mapping
// once from front to back (FileTraceSource over a capture) calls
// release_before() as its cursor advances, so the file's pages stay
// resident only in a bounded window behind the cursor instead of
// accumulating for the whole file.
//
// Anonymous mappings (map_anonymous, AnonymousAllocator) serve large
// buffers that live for one stage of a call. Unmapped, their pages leave
// the process at once; freed to malloc, such buffers stay resident in the
// heap holes they leave, and a process that repeats the stage climbs to a
// higher peak RSS with every repeat (docs/performance.md, "The scan on the
// shared pool").
#pragma once

#include <cstddef>
#include <string>
#include <type_traits>

namespace seg::util {

/// Maps `bytes` of private, anonymous memory (heap memory where mappings
/// are unavailable, and under AddressSanitizer). Throws std::bad_alloc
/// when the system refuses.
void* map_anonymous(std::size_t bytes);

/// Unmaps memory from map_anonymous; `bytes` as passed there.
void unmap_anonymous(void* data, std::size_t bytes) noexcept;

/// An allocator that gives every allocation its own anonymous mapping, for
/// containers of stage-lifetime buffers that reserve once and grow rarely.
template <typename T>
struct AnonymousAllocator {
  using value_type = T;
  using is_always_equal = std::true_type;

  AnonymousAllocator() = default;
  template <typename U>
  AnonymousAllocator(const AnonymousAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) { return static_cast<T*>(map_anonymous(n * sizeof(T))); }
  void deallocate(T* data, std::size_t n) noexcept { unmap_anonymous(data, n * sizeof(T)); }

  friend bool operator==(const AnonymousAllocator&, const AnonymousAllocator&) { return true; }
};

class MmapFile {
 public:
  MmapFile() = default;

  /// Maps `path` read-only. Throws util::ParseError when the file cannot
  /// be opened or mapped. An empty file maps to data() == nullptr,
  /// size() == 0 with is_open() true.
  explicit MmapFile(const std::string& path);

  ~MmapFile();

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;
  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;

  const unsigned char* data() const { return static_cast<const unsigned char*>(data_); }
  std::size_t size() const { return size_; }
  bool is_open() const { return open_; }

  /// Drops the resident pages that lie wholly before byte `offset`. The
  /// mapping stays valid: the bytes are unchanged, and a page read again
  /// faults back in from the file. A hint — failures are ignored.
  void release_before(std::size_t offset);

  /// Unmaps now (also done by the destructor).
  void close();

 private:
  void* data_ = nullptr;
  std::size_t size_ = 0;
  bool open_ = false;
};

}  // namespace seg::util
