// Minimal JSON parser: grammar coverage, escapes, typed accessors and
// loud failures on malformed specs.
#include <gtest/gtest.h>

#include <string>

#include "util/error.h"
#include "util/json.h"

namespace np::util {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(JsonValue::Parse("null").IsNull());
  EXPECT_TRUE(JsonValue::Parse("true").AsBool());
  EXPECT_FALSE(JsonValue::Parse("false").AsBool());
  EXPECT_DOUBLE_EQ(JsonValue::Parse("3.25").AsDouble(), 3.25);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-1e3").AsDouble(), -1000.0);
  EXPECT_EQ(JsonValue::Parse("42").AsInt(), 42);
  EXPECT_EQ(JsonValue::Parse("\"hi\"").AsString(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  const JsonValue doc = JsonValue::Parse(R"({
    "name": "clustered_churn",
    "world": {"type": "clustered", "delta": 0.9, "seed": 7},
    "algorithms": ["meridian", "tiers"],
    "flags": [true, false, null],
    "empty_object": {},
    "empty_array": []
  })");
  EXPECT_TRUE(doc.IsObject());
  EXPECT_EQ(doc.at("name").AsString(), "clustered_churn");
  EXPECT_EQ(doc.at("world").at("type").AsString(), "clustered");
  EXPECT_DOUBLE_EQ(doc.at("world").at("delta").AsDouble(), 0.9);
  EXPECT_EQ(doc.at("algorithms").size(), 2u);
  EXPECT_EQ(doc.at("algorithms").at(1).AsString(), "tiers");
  EXPECT_TRUE(doc.at("flags").at(2).IsNull());
  EXPECT_EQ(doc.at("empty_object").entries().size(), 0u);
  EXPECT_EQ(doc.at("empty_array").size(), 0u);
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(JsonValue::Parse(R"("a\"b\\c\nd\te")").AsString(),
            "a\"b\\c\nd\te");
  // \u escape, including a surrogate pair (UTF-8 output).
  EXPECT_EQ(JsonValue::Parse(R"("A")").AsString(), "A");
  EXPECT_EQ(JsonValue::Parse(R"("é")").AsString(), "\xc3\xa9");
  EXPECT_EQ(JsonValue::Parse(R"("😀")").AsString(),
            "\xf0\x9f\x98\x80");
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(JsonValue::Parse(""), Error);
  EXPECT_THROW(JsonValue::Parse("{"), Error);
  EXPECT_THROW(JsonValue::Parse("{\"a\" 1}"), Error);
  EXPECT_THROW(JsonValue::Parse("[1, 2,]"), Error);
  EXPECT_THROW(JsonValue::Parse("tru"), Error);
  EXPECT_THROW(JsonValue::Parse("\"unterminated"), Error);
  EXPECT_THROW(JsonValue::Parse("1.2.3"), Error);
  EXPECT_THROW(JsonValue::Parse("{} trailing"), Error);
  EXPECT_THROW(JsonValue::Parse(R"("\q")"), Error);
  EXPECT_THROW(JsonValue::Parse(R"("\ud83d")"), Error);  // lone surrogate
}

TEST(Json, ErrorsCarryPosition) {
  try {
    JsonValue::Parse("{\n  \"a\": }");
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

/// The parse error for `text`, or "" when it parses.
std::string ParseError(const std::string& text) {
  try {
    JsonValue::Parse(text);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

std::string Repeat(const std::string& unit, int times) {
  std::string out;
  for (int i = 0; i < times; ++i) {
    out += unit;
  }
  return out;
}

TEST(Json, NestingDepthIsBounded) {
  EXPECT_EQ(ParseError(Repeat("[", 64) + Repeat("]", 64)), "");
  EXPECT_EQ(ParseError(Repeat("{\"a\":", 64) + "1" + Repeat("}", 64)), "");
  // The 65th level fails at its own opening byte.
  EXPECT_NE(ParseError(Repeat("[", 65) + Repeat("]", 65))
                .find("nested deeper than 64 levels (byte offset 64)"),
            std::string::npos);
  EXPECT_NE(ParseError(Repeat("{\"a\":", 65) + "1" + Repeat("}", 65))
                .find("(byte offset 320)"),
            std::string::npos);
  // Hostile depths throw instead of overflowing the stack.
  EXPECT_THROW(JsonValue::Parse(Repeat("[", 100000)), Error);
  EXPECT_THROW(JsonValue::Parse(Repeat("{\"a\":", 100000)), Error);
}

TEST(Json, AccessorsValidateTypes) {
  const JsonValue doc = JsonValue::Parse(R"({"a": [1]})");
  EXPECT_THROW(doc.AsBool(), Error);
  EXPECT_THROW(doc.at("a").AsString(), Error);
  EXPECT_THROW(doc.at("a").at(5), Error);
  EXPECT_THROW(doc.at("b"), Error);
  EXPECT_THROW(doc.at("a").entries(), Error);
}

}  // namespace
}  // namespace np::util
