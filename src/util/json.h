// Minimal JSON parsing for config-driven drivers (np_run scenario
// specs). Covers the full JSON value grammar — null, booleans,
// numbers, strings (with escapes), arrays, objects — with positioned
// error messages; it does not aim to be a performance or
// streaming-parser project, scenario specs are a few KB.
//
// Parsing throws util::Error (the project exception) on malformed
// input; accessors throw on type mismatches so a misspelled spec
// fails loudly instead of silently defaulting.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace np::util {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one JSON document (trailing whitespace allowed, trailing
  /// garbage rejected). Throws util::Error with line/column context.
  static JsonValue Parse(std::string_view text);

  JsonValue() = default;

  Type type() const { return type_; }
  bool IsNull() const { return type_ == Type::kNull; }
  bool IsBool() const { return type_ == Type::kBool; }
  bool IsNumber() const { return type_ == Type::kNumber; }
  bool IsString() const { return type_ == Type::kString; }
  bool IsArray() const { return type_ == Type::kArray; }
  bool IsObject() const { return type_ == Type::kObject; }

  bool AsBool() const;
  double AsDouble() const;
  std::int64_t AsInt() const;
  const std::string& AsString() const;

  /// Array access.
  std::size_t size() const;
  const JsonValue& at(std::size_t index) const;
  const std::vector<JsonValue>& items() const;

  /// Object access: Find returns nullptr when the key is absent;
  /// at(key) throws.
  const JsonValue* Find(const std::string& key) const;
  const JsonValue& at(const std::string& key) const;
  const std::vector<std::pair<std::string, JsonValue>>& entries() const;

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// `text` escaped for the inside of a JSON string literal: quotes and
/// backslashes get a backslash, control bytes become \u00XX. The
/// writer-side counterpart of Parse, shared by every JSON report.
std::string JsonEscape(std::string_view text);

}  // namespace np::util
