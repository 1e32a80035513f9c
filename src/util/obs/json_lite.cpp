#include "util/obs/json_lite.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <ostream>
#include <sstream>

namespace seg::obs::json {

const Value* Value::find(std::string_view key) const {
  if (!is_object()) {
    return nullptr;
  }
  for (const auto& [name, value] : *object_) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

Value Value::make_null() { return Value(); }

Value Value::make_bool(bool b) {
  Value v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}

Value Value::make_number(double n) {
  Value v;
  v.kind_ = Kind::Number;
  v.number_ = n;
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.kind_ = Kind::String;
  v.string_ = std::move(s);
  return v;
}

Value Value::make_array(Array a) {
  Value v;
  v.kind_ = Kind::Array;
  v.array_ = std::make_shared<Array>(std::move(a));
  return v;
}

Value Value::make_object(Object o) {
  Value v;
  v.kind_ = Kind::Object;
  v.object_ = std::make_shared<Object>(std::move(o));
  return v;
}

namespace {

constexpr int kMaxDepth = 64;

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& message) {
    if (error.empty()) {
      error = message + " at byte " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos;
    }
  }

  bool consume(char expected) {
    if (pos < text.size() && text[pos] == expected) {
      ++pos;
      return true;
    }
    return fail(std::string("expected '") + expected + "'");
  }

  bool parse_value(Value& out, int depth) {
    if (depth > kMaxDepth) {
      return fail("nesting too deep");
    }
    skip_ws();
    if (pos >= text.size()) {
      return fail("unexpected end of input");
    }
    const char c = text[pos];
    switch (c) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"': return parse_string_value(out);
      case 't': return parse_literal("true", Value::make_bool(true), out);
      case 'f': return parse_literal("false", Value::make_bool(false), out);
      case 'n': return parse_literal("null", Value::make_null(), out);
      default: return parse_number(out);
    }
  }

  bool parse_literal(std::string_view literal, Value value, Value& out) {
    if (text.substr(pos, literal.size()) != literal) {
      return fail("invalid literal");
    }
    pos += literal.size();
    out = std::move(value);
    return true;
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') {
      ++pos;
    }
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E' || text[pos] == '+' || text[pos] == '-')) {
      ++pos;
    }
    if (pos == start) {
      return fail("expected a value");
    }
    const std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    const double number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos = start;
      return fail("malformed number");
    }
    out = Value::make_number(number);
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) {
      return false;
    }
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c == '\\') {
        ++pos;
        if (pos >= text.size()) {
          return fail("unterminated escape");
        }
        const char esc = text[pos];
        ++pos;
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos + 4 > text.size()) {
              return fail("truncated \\u escape");
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos + static_cast<std::size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return fail("invalid \\u escape");
              }
            }
            pos += 4;
            // UTF-8 encode the BMP code point; surrogate pairs are kept as
            // two 3-byte sequences (adequate for validation purposes).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default: return fail("unknown escape");
        }
        continue;
      }
      out.push_back(c);
      ++pos;
    }
    return fail("unterminated string");
  }

  bool parse_string_value(Value& out) {
    std::string s;
    if (!parse_string(s)) {
      return false;
    }
    out = Value::make_string(std::move(s));
    return true;
  }

  bool parse_array(Value& out, int depth) {
    if (!consume('[')) {
      return false;
    }
    Array items;
    skip_ws();
    if (pos < text.size() && text[pos] == ']') {
      ++pos;
      out = Value::make_array(std::move(items));
      return true;
    }
    while (true) {
      Value item;
      if (!parse_value(item, depth + 1)) {
        return false;
      }
      items.push_back(std::move(item));
      skip_ws();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      if (!consume(']')) {
        return false;
      }
      out = Value::make_array(std::move(items));
      return true;
    }
  }

  bool parse_object(Value& out, int depth) {
    if (!consume('{')) {
      return false;
    }
    Object members;
    skip_ws();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      out = Value::make_object(std::move(members));
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) {
        return false;
      }
      skip_ws();
      if (!consume(':')) {
        return false;
      }
      Value value;
      if (!parse_value(value, depth + 1)) {
        return false;
      }
      members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      if (!consume('}')) {
        return false;
      }
      out = Value::make_object(std::move(members));
      return true;
    }
  }
};

}  // namespace

Value parse(std::string_view text, std::string* error) {
  Parser parser{text, 0, {}};
  Value out;
  if (!parser.parse_value(out, 0)) {
    if (error != nullptr) {
      *error = parser.error;
    }
    return Value::make_null();
  }
  parser.skip_ws();
  if (parser.pos != text.size()) {
    if (error != nullptr) {
      *error = "trailing data at byte " + std::to_string(parser.pos);
    }
    return Value::make_null();
  }
  if (error != nullptr) {
    error->clear();
  }
  return out;
}

void write_escaped(std::ostream& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out << "\\u00" << kHex[(c >> 4) & 0xf] << kHex[c & 0xf];
        } else {
          out << c;
        }
    }
  }
}

std::string format_double(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

}  // namespace seg::obs::json
