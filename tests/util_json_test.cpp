// util/json.hpp — the minimal JSON reader behind the bench regression gate.

#include "util/json.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>

namespace qoslb::json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_TRUE(parse("true").as_bool());
  EXPECT_FALSE(parse("false").as_bool());
  EXPECT_DOUBLE_EQ(parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesStringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(parse(R"("Aé")").as_string(), "A\xc3\xa9");
}

TEST(Json, ParsesNestedStructure) {
  const Value doc = parse(R"({
    "bench": "e23_soa_scaling",
    "rows": [
      {"mode": "dense", "threads": 1, "users_per_sec": 1.25e8, "ok": true},
      {"mode": "dense", "threads": 8}
    ]
  })");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("bench")->as_string(), "e23_soa_scaling");
  const Value& rows = *doc.find("rows");
  ASSERT_EQ(rows.items().size(), 2u);
  EXPECT_DOUBLE_EQ(rows.items()[0].find("users_per_sec")->as_number(), 1.25e8);
  EXPECT_TRUE(rows.items()[0].find("ok")->as_bool());
  EXPECT_EQ(rows.items()[1].find("users_per_sec"), nullptr);
}

TEST(Json, MemberOrderIsPreserved) {
  const Value doc = parse(R"({"b": 1, "a": 2, "c": 3})");
  ASSERT_EQ(doc.members().size(), 3u);
  EXPECT_EQ(doc.members()[0].first, "b");
  EXPECT_EQ(doc.members()[1].first, "a");
  EXPECT_EQ(doc.members()[2].first, "c");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse(""), std::invalid_argument);
  EXPECT_THROW(parse("{"), std::invalid_argument);
  EXPECT_THROW(parse("[1, 2,]"), std::invalid_argument);
  EXPECT_THROW(parse("{\"a\": 1,}"), std::invalid_argument);
  EXPECT_THROW(parse("nul"), std::invalid_argument);
  EXPECT_THROW(parse("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(parse("1 2"), std::invalid_argument);
  EXPECT_THROW(parse("{\"a\": 1, \"a\": 2}"), std::invalid_argument);
  EXPECT_THROW(parse("--1"), std::invalid_argument);
}

// Recursive descent bounds its own stack: nesting past kMaxDepth is an
// ordinary parse error, never a stack overflow.
TEST(Json, RejectsNestingBeyondTheBound) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_EQ(parse(nested(kMaxDepth)).items().size(), 1u);
  EXPECT_THROW(parse(nested(kMaxDepth + 1)), std::invalid_argument);
  std::string objects;
  for (std::size_t i = 0; i <= kMaxDepth; ++i) objects += "{\"a\":";
  objects += "1" + std::string(kMaxDepth + 1, '}');
  EXPECT_THROW(parse(objects), std::invalid_argument);
}

TEST(Json, ErrorsCarryLineAndColumn) {
  try {
    parse("{\n  \"a\": ?\n}");
    FAIL() << "expected a parse error";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos)
        << error.what();
  }
}

TEST(Json, TypedAccessorsRejectWrongKinds) {
  EXPECT_THROW(parse("1").as_string(), std::invalid_argument);
  EXPECT_THROW(parse("\"x\"").as_number(), std::invalid_argument);
  EXPECT_THROW(parse("[1]").members(), std::invalid_argument);
  EXPECT_THROW(parse("{}").items(), std::invalid_argument);
  EXPECT_THROW(parse("3").find("a"), std::invalid_argument);
}

TEST(Json, ParseFileRoundTripsAndPrefixesErrors) {
  const std::string path = ::testing::TempDir() + "qoslb_json_test.json";
  {
    std::ofstream out(path);
    out << R"({"rows": [{"threads": 4}]})";
  }
  const Value doc = parse_file(path);
  EXPECT_DOUBLE_EQ(
      doc.find("rows")->items()[0].find("threads")->as_number(), 4.0);

  EXPECT_THROW(parse_file(path + ".does-not-exist"), std::invalid_argument);
  {
    std::ofstream out(path);
    out << "{broken";
  }
  try {
    parse_file(path);
    FAIL() << "expected a parse error";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos);
  }
}

}  // namespace
}  // namespace qoslb::json
