#include "util/csv.h"

#include "util/require.h"
#include "util/strings.h"

namespace seg::util {

DsvReader::DsvReader(const std::string& path, char delimiter)
    : stream_(path), delimiter_(delimiter) {
  require_data(stream_.is_open(), "DsvReader: cannot open '" + path + "'");
}

bool DsvReader::next(std::vector<std::string_view>& fields) {
  fields.clear();
  while (std::getline(stream_, buffer_)) {
    ++line_number_;
    // Tolerate CRLF input.
    if (!buffer_.empty() && buffer_.back() == '\r') {
      buffer_.pop_back();
    }
    const std::string_view line = trim(buffer_);
    if (line.empty() || line.front() == '#') {
      continue;
    }
    fields = split(std::string_view(buffer_), delimiter_);
    return true;
  }
  return false;
}

DsvWriter::DsvWriter(const std::string& path, char delimiter)
    : stream_(path), path_(path), delimiter_(delimiter) {
  require_data(stream_.is_open(), "DsvWriter: cannot open '" + path + "'");
}

void DsvWriter::write_comment(std::string_view comment) {
  stream_ << "# " << comment << "\n";
}

namespace {
template <typename Field>
void write_row_impl(std::ofstream& stream, char delimiter, const std::vector<Field>& fields) {
  bool first = true;
  for (const auto& field : fields) {
    if (!first) {
      stream << delimiter;
    }
    stream << field;
    first = false;
  }
  stream << "\n";
}
}  // namespace

void DsvWriter::write_row(const std::vector<std::string>& fields) {
  write_row_impl(stream_, delimiter_, fields);
}

void DsvWriter::write_row(const std::vector<std::string_view>& fields) {
  write_row_impl(stream_, delimiter_, fields);
}

void DsvWriter::close() {
  if (stream_.is_open()) {
    close_output(stream_, path_);
  }
}

}  // namespace seg::util
