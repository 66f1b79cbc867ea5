#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>

#include "util/error.h"

namespace np::util {

namespace {

const char* TypeName(JsonValue::Type type) {
  switch (type) {
    case JsonValue::Type::kNull:
      return "null";
    case JsonValue::Type::kBool:
      return "bool";
    case JsonValue::Type::kNumber:
      return "number";
    case JsonValue::Type::kString:
      return "string";
    case JsonValue::Type::kArray:
      return "array";
    case JsonValue::Type::kObject:
      return "object";
  }
  return "?";
}

[[noreturn]] void ThrowType(JsonValue::Type want, JsonValue::Type got) {
  throw Error(std::string("json: expected ") + TypeName(want) + ", have " +
              TypeName(got));
}

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue ParseDocument() {
    JsonValue value = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) {
      Fail("trailing characters after the JSON document");
    }
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& message) const {
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw Error("json: " + message + " at line " + std::to_string(line) +
                ", column " + std::to_string(column));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() {
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) {
      Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool Consume(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return false;
    }
    pos_ += literal.size();
    return true;
  }

  JsonValue ParseValue() {
    SkipWhitespace();
    switch (Peek()) {
      case '{':
      case '[': {
        // Each level is one native stack frame; bound them so hostile
        // input gets an error instead of a stack overflow.
        if (depth_ == kMaxDepth) {
          Fail("arrays/objects nested deeper than " +
               std::to_string(kMaxDepth) + " levels (byte offset " +
               std::to_string(pos_) + ")");
        }
        ++depth_;
        JsonValue value = Peek() == '{' ? ParseObject() : ParseArray();
        --depth_;
        return value;
      }
      case '"': {
        JsonValue value;
        value.type_ = JsonValue::Type::kString;
        value.string_ = ParseString();
        return value;
      }
      case 't':
      case 'f': {
        JsonValue value;
        value.type_ = JsonValue::Type::kBool;
        if (Consume("true")) {
          value.bool_ = true;
        } else if (Consume("false")) {
          value.bool_ = false;
        } else {
          Fail("invalid literal");
        }
        return value;
      }
      case 'n': {
        if (!Consume("null")) {
          Fail("invalid literal");
        }
        return JsonValue{};
      }
      default:
        return ParseNumber();
    }
  }

  JsonValue ParseObject() {
    Expect('{');
    JsonValue value;
    value.type_ = JsonValue::Type::kObject;
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      value.object_.emplace_back(std::move(key), ParseValue());
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return value;
    }
  }

  JsonValue ParseArray() {
    Expect('[');
    JsonValue value;
    value.type_ = JsonValue::Type::kArray;
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.array_.push_back(ParseValue());
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return value;
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        Fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        Fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        Fail("unterminated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          out.append(ParseUnicodeEscape());
          break;
        }
        default:
          Fail("unknown escape");
      }
    }
  }

  /// \uXXXX -> UTF-8 (surrogate pairs supported).
  std::string ParseUnicodeEscape() {
    const auto hex4 = [this]() -> std::uint32_t {
      if (pos_ + 4 > text_.size()) {
        Fail("truncated \\u escape");
      }
      std::uint32_t code = 0;
      for (int i = 0; i < 4; ++i) {
        const char h = text_[pos_++];
        code <<= 4;
        if (h >= '0' && h <= '9') {
          code |= static_cast<std::uint32_t>(h - '0');
        } else if (h >= 'a' && h <= 'f') {
          code |= static_cast<std::uint32_t>(h - 'a' + 10);
        } else if (h >= 'A' && h <= 'F') {
          code |= static_cast<std::uint32_t>(h - 'A' + 10);
        } else {
          Fail("invalid hex digit in \\u escape");
        }
      }
      return code;
    };
    std::uint32_t code = hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {
      if (!Consume("\\u")) {
        Fail("unpaired surrogate");
      }
      const std::uint32_t low = hex4();
      if (low < 0xDC00 || low > 0xDFFF) {
        Fail("invalid low surrogate");
      }
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      Fail("unpaired surrogate");
    }
    std::string utf8;
    if (code < 0x80) {
      utf8.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      utf8.push_back(static_cast<char>(0xC0 | (code >> 6)));
      utf8.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      utf8.push_back(static_cast<char>(0xE0 | (code >> 12)));
      utf8.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      utf8.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      utf8.push_back(static_cast<char>(0xF0 | (code >> 18)));
      utf8.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      utf8.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      utf8.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
    return utf8;
  }

  JsonValue ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      Fail("expected a value");
    }
    double parsed = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, parsed);
    if (ec != std::errc{} || end != text_.data() + pos_) {
      pos_ = start;
      Fail("malformed number");
    }
    JsonValue value;
    value.type_ = JsonValue::Type::kNumber;
    value.number_ = parsed;
    return value;
  }

  /// Deepest array/object nesting accepted; scenario specs use < 10.
  static constexpr int kMaxDepth = 64;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

JsonValue JsonValue::Parse(std::string_view text) {
  return JsonParser(text).ParseDocument();
}

bool JsonValue::AsBool() const {
  if (type_ != Type::kBool) {
    ThrowType(Type::kBool, type_);
  }
  return bool_;
}

double JsonValue::AsDouble() const {
  if (type_ != Type::kNumber) {
    ThrowType(Type::kNumber, type_);
  }
  return number_;
}

std::int64_t JsonValue::AsInt() const {
  const double d = AsDouble();
  const double rounded = std::nearbyint(d);
  if (rounded != d) {
    throw Error("json: expected an integer, have " + std::to_string(d));
  }
  return static_cast<std::int64_t>(rounded);
}

const std::string& JsonValue::AsString() const {
  if (type_ != Type::kString) {
    ThrowType(Type::kString, type_);
  }
  return string_;
}

std::size_t JsonValue::size() const {
  if (type_ == Type::kArray) {
    return array_.size();
  }
  if (type_ == Type::kObject) {
    return object_.size();
  }
  ThrowType(Type::kArray, type_);
}

const JsonValue& JsonValue::at(std::size_t index) const {
  if (type_ != Type::kArray) {
    ThrowType(Type::kArray, type_);
  }
  if (index >= array_.size()) {
    throw Error("json: array index " + std::to_string(index) +
                " out of range (size " + std::to_string(array_.size()) + ")");
  }
  return array_[index];
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::kArray) {
    ThrowType(Type::kArray, type_);
  }
  return array_;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type_ != Type::kObject) {
    ThrowType(Type::kObject, type_);
  }
  for (const auto& [k, v] : object_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* value = Find(key);
  if (value == nullptr) {
    throw Error("json: missing key \"" + key + "\"");
  }
  return *value;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::entries()
    const {
  if (type_ != Type::kObject) {
    ThrowType(Type::kObject, type_);
  }
  return object_;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      constexpr char kHex[] = "0123456789abcdef";
      out += "\\u00";
      out.push_back(kHex[(static_cast<unsigned char>(c) >> 4) & 0xF]);
      out.push_back(kHex[static_cast<unsigned char>(c) & 0xF]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace np::util
