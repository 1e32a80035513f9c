// Read-only memory-mapped files — the project's single mmap wrapper.
//
// All raw mmap/munmap/madvise calls in the tree live in mmap_file.cpp
// (enforced by seg-lint rule R-MEM1): mapping lifetime bugs and page
// release are concentrated in one reviewed translation unit.
//
// Mappings are private and read-only. A reader that walks a mapping once
// from front to back (FileTraceSource over a capture) calls
// release_before() as its cursor advances, so the file's pages stay
// resident only in a bounded window behind the cursor instead of
// accumulating for the whole file.
#pragma once

#include <cstddef>
#include <string>

namespace seg::util {

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
