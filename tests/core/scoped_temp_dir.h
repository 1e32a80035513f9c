// ScopedTempDir: points std::filesystem::temp_directory_path() (TMPDIR)
// at a fresh directory for the object's lifetime, so a test sees every
// entry a prepare leaves there, whatever other processes do in the
// system's. Shared by the prepare and stream tests.
#pragma once

#include <stdlib.h>

#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>

namespace seg::core {

class ScopedTempDir {
 public:
  ScopedTempDir()
      : path_((std::filesystem::temp_directory_path() / "segugio-test-XXXXXX").string()) {
    if (::mkdtemp(path_.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed");
    }
    if (const char* saved = std::getenv("TMPDIR"); saved != nullptr) {
      saved_ = saved;
    }
    ::setenv("TMPDIR", path_.c_str(), 1);
  }
  ~ScopedTempDir() {
    if (saved_) {
      ::setenv("TMPDIR", saved_->c_str(), 1);
    } else {
      ::unsetenv("TMPDIR");
    }
    std::filesystem::remove_all(path_);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  std::size_t entries() const {
    return static_cast<std::size_t>(std::distance(std::filesystem::directory_iterator(path_),
                                                  std::filesystem::directory_iterator()));
  }

 private:
  std::string path_;
  std::optional<std::string> saved_;
};

}  // namespace seg::core
