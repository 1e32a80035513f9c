// Minimal delimiter-separated-values reader/writer.
//
// Used for experiment outputs (paper-style tables) and for the on-disk text
// form of DNS query logs. Supports configurable delimiter and '#' comment
// lines; fields must not contain the delimiter (our formats never need
// quoting, so we keep the format trivially greppable).
#pragma once

#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace seg::util {

/// Streaming reader over a delimiter-separated text file.
class DsvReader {
 public:
  /// Opens `path`; throws ParseError if the file cannot be opened.
  DsvReader(const std::string& path, char delimiter = '\t');

  /// Reads the next data row into `fields` (views into an internal buffer
  /// valid until the next call). Skips blank lines and '#' comments.
  /// Returns false at end of file.
  bool next(std::vector<std::string_view>& fields);

  /// Line number of the most recently returned row (1-based).
  std::size_t line_number() const { return line_number_; }

 private:
  std::ifstream stream_;
  std::string buffer_;
  char delimiter_;
  std::size_t line_number_ = 0;
};

/// Writer producing delimiter-separated rows.
class DsvWriter {
 public:
  /// Opens `path` for writing; throws ParseError on failure.
  DsvWriter(const std::string& path, char delimiter = '\t');

  void write_comment(std::string_view comment);
  void write_row(const std::vector<std::string>& fields);
  void write_row(const std::vector<std::string_view>& fields);

  /// Flushes and closes; throws ParseError, naming the file, when a write
  /// to it failed. The destructor closes without that check.
  void close();

 private:
  std::ofstream stream_;
  std::string path_;
  char delimiter_;
};

}  // namespace seg::util
