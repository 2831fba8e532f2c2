// util/json.hpp — the minimal JSON reader behind the bench regression gate,
// plus a seeded mutation fuzz of parse() over the JSONL lines the telemetry
// sinks write and over bracket runs far past the nesting bound.

#include "util/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/decision_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "rng/round_rng.hpp"
#include "text_mutator.hpp"

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

constexpr std::uint64_t kFuzzSeed = 0x4A534F4E;

/// Parses `text` and records which way it went. Any exception other than
/// std::invalid_argument fails the test with the input that caused it.
void parse_or_refuse(const std::string& text, std::uint64_t& accepted,
                     std::uint64_t& refused) {
  try {
    parse(text);
    ++accepted;
  } catch (const std::invalid_argument&) {
    ++refused;
  } catch (const std::exception& error) {
    ADD_FAILURE() << "parse threw a non-std::invalid_argument error: "
                  << error.what() << "\n--- input ---\n"
                  << text.substr(0, 400);
  }
}

/// One valid line of each JSONL shape the sinks write (trace begin, row and
/// end; decision begin, decision and end; metrics counter, gauge and
/// histogram), and one pretty-printed document whose numbers follow spaces,
/// where the mutator swaps number tokens.
std::vector<std::string> artifact_documents() {
  obs::TraceRunInfo info;
  info.protocol = "uniform(lambda=0.5)";
  info.users = 100;
  info.resources = 10;
  info.seed = 42;
  info.threads = 4;
  info.mode = "dense";
  std::ostringstream text;
  obs::JsonlTraceSink trace(text);
  trace.begin_run(info);
  obs::TraceRow row;
  row.round = 3;
  row.unsatisfied = 17;
  row.potential = 2.5;
  trace.row(row);
  trace.end_run();
  obs::JsonlDecisionSink decisions(text);
  decisions.begin_run(info, 8);
  obs::DecisionEvent decision;
  decision.round = 3;
  decision.user = 7;
  decision.requested = true;
  decisions.decision(decision);
  decisions.end_run();
  obs::MetricsRegistry metrics;
  metrics.add(metrics.counter("engine/rounds"), 12);
  metrics.set(metrics.gauge("state/potential"), 1.0 / 3.0);
  const obs::HistogramHandle sizes =
      metrics.histogram("engine/active_set_size", 0.0, 100.0, 4);
  for (const double sample : {-1.0, 3.0, 40.0, 99.0, 250.0})
    metrics.observe(sizes, sample);
  metrics.write_jsonl(text);
  std::vector<std::string> documents = lines_of(text.str());
  documents.push_back(
      "{\n  \"rows\": [\n    {\"threads\": 4, \"users_per_sec\": 5.2e7,\n"
      "     \"speedup\": [1, 1.58, -0.5]},\n    {\"ok\": true, \"note\": null}\n"
      "  ],\n  \"hardware_threads\": 4\n}\n");
  return documents;
}

TEST(JsonFuzz, MutatedArtifactLinesParseOrThrowInvalidArgument) {
  constexpr std::uint64_t kIterations = 400;
  const std::vector<std::string> documents = artifact_documents();
  ASSERT_GE(documents.size(), 10u);
  std::uint64_t accepted = 0;
  std::uint64_t refused = 0;
  for (std::size_t d = 0; d < documents.size(); ++d) {
    ASSERT_NO_THROW(parse(documents[d])) << documents[d];
    const RoundRng streams(kFuzzSeed, d);
    for (std::uint64_t i = 0; i < kIterations; ++i) {
      PhiloxEngine rng = streams.user_stream(i);
      SCOPED_TRACE("document " + std::to_string(d) + ", mutant " +
                   std::to_string(i));
      parse_or_refuse(mutate(documents[d], rng), accepted, refused);
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
}

// Nesting far past kMaxDepth, well-formed or not, and mutants of it: the
// depth bound makes each an ordinary value or parse error, never a stack
// overflow.
TEST(JsonFuzz, BracketRunsUpTo100000DeepParseOrThrowInvalidArgument) {
  std::vector<std::string> runs;
  for (const std::size_t depth :
       {std::size_t{1}, std::size_t{2}, kMaxDepth - 1, kMaxDepth,
        kMaxDepth + 1, std::size_t{1000}, std::size_t{100000}}) {
    std::string mixed_open;
    std::string mixed_close;
    for (std::size_t i = 0; i < depth; ++i) {
      mixed_open += i % 2 == 0 ? "[" : "{\"k\":";
      mixed_close += i % 2 == 0 ? ']' : '}';
    }
    std::reverse(mixed_close.begin(), mixed_close.end());
    runs.push_back(std::string(depth, '['));
    runs.push_back(std::string(depth, '[') + std::string(depth, ']'));
    runs.push_back(std::string(depth, '[') + std::string(depth, '}'));
    runs.push_back(mixed_open + "0" + mixed_close);
    runs.push_back(mixed_open);
  }
  std::uint64_t accepted = 0;
  std::uint64_t refused = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    SCOPED_TRACE("run " + std::to_string(r));
    parse_or_refuse(runs[r], accepted, refused);
    const RoundRng streams(kFuzzSeed + 1, r);
    for (std::uint64_t i = 0; i < 4; ++i) {
      PhiloxEngine rng = streams.user_stream(i);
      parse_or_refuse(mutate(runs[r], rng), accepted, refused);
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
  EXPECT_THROW(parse(std::string(100000, '[') + std::string(100000, ']')),
               std::invalid_argument);
}

}  // namespace
}  // namespace qoslb::json
