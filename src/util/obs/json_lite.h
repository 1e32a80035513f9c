// Minimal JSON DOM parser used to validate obs exporter output
// (`segugio validate-obs`) without external dependencies, plus the two
// value writers every obs exporter shares. Not a general serialization
// layer: it accepts strict JSON, keeps numbers as doubles, and stores
// objects as insertion-ordered key/value vectors.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace seg::obs::json {

class Value;

using Array = std::vector<Value>;
using Object = std::vector<std::pair<std::string, Value>>;

enum class Kind { Null, Bool, Number, String, Array, Object };

class Value {
 public:
  Value() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const Array& as_array() const { return *array_; }
  const Object& as_object() const { return *object_; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;

  static Value make_null();
  static Value make_bool(bool b);
  static Value make_number(double n);
  static Value make_string(std::string s);
  static Value make_array(Array a);
  static Value make_object(Object o);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// Parses `text` as one JSON document. On failure returns a Null value and
/// sets *error (when non-null) to a message with a byte offset.
Value parse(std::string_view text, std::string* error);

/// Writes `text` as the inside of a JSON string literal (no quotes): `"`,
/// `\`, newline and tab get their short escapes, other control bytes
/// `\u00XX`. The trace, run-report and journal writers all escape through
/// it, so one name is spelled the same in every artifact.
void write_escaped(std::ostream& out, std::string_view text);

/// `value` as a JSON number at precision 17, so identical bits always
/// serialize to identical bytes. JSON has no Inf/NaN: a non-finite value
/// comes back as `null` (the run report spells its +Inf histogram bound as
/// a string instead; the journal validator rejects null).
std::string format_double(double value);

}  // namespace seg::obs::json
