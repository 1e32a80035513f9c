#include "util/mmap_file.h"

#include <algorithm>
#include <new>
#include <utility>

#include "util/require.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace seg::util {

#if defined(__unix__) || defined(__APPLE__)

MmapFile::MmapFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  require_data(fd >= 0, "MmapFile: cannot open '" + path + "'");
  struct stat info{};
  if (::fstat(fd, &info) != 0) {
    ::close(fd);
    throw ParseError("MmapFile: cannot stat '" + path + "'");
  }
  size_ = static_cast<std::size_t>(info.st_size);
  if (size_ > 0) {
    void* mapped = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (mapped == MAP_FAILED) {
      ::close(fd);
      throw ParseError("MmapFile: mmap failed for '" + path + "'");
    }
    data_ = mapped;
  }
  ::close(fd);
  open_ = true;
}

void MmapFile::release_before(std::size_t offset) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t length = std::min(offset, size_) / page * page;
  if (data_ != nullptr && length > 0) {
    // The mapping is private and read-only, so dropped pages refault from
    // the file with the same bytes.
    ::madvise(data_, length, MADV_DONTNEED);
  }
}

void MmapFile::close() {
  if (data_ != nullptr) {
    ::munmap(data_, size_);
  }
  data_ = nullptr;
  size_ = 0;
  open_ = false;
}

// Under AddressSanitizer the buffers come from the heap instead, so their
// bounds stay checked; a mapping is only checked to page granularity.
#if defined(__SANITIZE_ADDRESS__)

void* map_anonymous(std::size_t bytes) { return ::operator new(bytes); }

void unmap_anonymous(void* data, std::size_t) noexcept { ::operator delete(data); }

#else

void* map_anonymous(std::size_t bytes) {
  void* mapped = ::mmap(nullptr, std::max<std::size_t>(bytes, 1), PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapped == MAP_FAILED) {
    throw std::bad_alloc();
  }
  return mapped;
}

void unmap_anonymous(void* data, std::size_t bytes) noexcept {
  ::munmap(data, std::max<std::size_t>(bytes, 1));
}

#endif

#else

MmapFile::MmapFile(const std::string& path) {
  throw ParseError("MmapFile: memory mapping unsupported on this platform ('" + path + "')");
}

void MmapFile::release_before(std::size_t) {}

void MmapFile::close() {
  data_ = nullptr;
  size_ = 0;
  open_ = false;
}

void* map_anonymous(std::size_t bytes) { return ::operator new(bytes); }

void unmap_anonymous(void* data, std::size_t) noexcept { ::operator delete(data); }

#endif

MmapFile::~MmapFile() { close(); }

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      open_(std::exchange(other.open_, false)) {}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    close();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    open_ = std::exchange(other.open_, false);
  }
  return *this;
}

}  // namespace seg::util
