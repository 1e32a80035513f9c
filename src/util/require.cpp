#include "util/require.h"

#include <fstream>

namespace seg::util {

void close_output(std::ofstream& out, const std::string& path) {
  out.close();
  require_data(!out.fail(), "cannot write '" + path + "'");
}

void MessagePart::append_to(std::string& out) const {
  if (is_number_) {
    out += std::to_string(number_);
  } else {
    out += text_;
  }
}

void throw_parse_error(std::initializer_list<MessagePart> parts) {
  std::string message;
  for (const auto& part : parts) {
    part.append_to(message);
  }
  throw ParseError(message);
}

}  // namespace seg::util
