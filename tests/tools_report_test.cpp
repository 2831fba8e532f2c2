// qoslb-report analysis-library tests: artifact classification, schema-drift
// detection, aggregate math, and a byte-exact golden render over the
// checked-in fixture artifacts in tests/report_fixtures/ — the same files CI
// feeds the standalone tool.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "rng/round_rng.hpp"
#include "text_mutator.hpp"
#include "tools/report/report.hpp"
#include "util/json.hpp"

namespace qoslb::report {
namespace {

std::string fixture_path(const std::string& name) {
  return std::string(QOSLB_REPORT_FIXTURES_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Ingest a fixture under its basename so rendered paths stay stable.
void ingest_fixture(const std::string& name, Report& report) {
  ingest_text(name, read_file(fixture_path(name)), report);
}

Report full_fixture_report() {
  Report report;
  ingest_fixture("trace_a.jsonl", report);
  ingest_fixture("trace_b.jsonl", report);
  ingest_fixture("metrics_a.jsonl", report);
  ingest_fixture("metrics_b.jsonl", report);
  ingest_fixture("decisions.jsonl", report);
  return report;
}

TEST(Report, ClassifiesAllThreeArtifactShapes) {
  const Report report = full_fixture_report();
  EXPECT_TRUE(report.schema_issues.empty());
  ASSERT_EQ(report.metrics.size(), 2u);
  ASSERT_EQ(report.traces.size(), 2u);
  ASSERT_EQ(report.decisions.size(), 1u);

  const TraceArtifact& trace = report.traces[0];
  EXPECT_EQ(trace.protocol, "uniform(lambda=0.5)");
  EXPECT_EQ(trace.users, 100u);
  EXPECT_EQ(trace.rows(), 4u);
  EXPECT_EQ(trace.last_round(), 3u);
  EXPECT_EQ(trace.rounds_to_satisfied(), 3u);
  EXPECT_EQ(trace.total_migrations(), 75u);
  EXPECT_EQ(trace.total_messages(), 140u);
  EXPECT_TRUE(trace.saw_end);

  EXPECT_EQ(report.metrics[0].rows.size(), 7u);
  EXPECT_EQ(report.metrics[0].rows[0].name, "engine/rounds");
  EXPECT_EQ(report.metrics[0].rows[0].value, 3.0);
}

TEST(Report, DecisionAggregatesAndFindings) {
  const Report report = full_fixture_report();
  ASSERT_EQ(report.decisions.size(), 1u);
  const DecisionsArtifact& artifact = report.decisions[0];
  EXPECT_EQ(artifact.sample_every, 2u);
  EXPECT_EQ(artifact.decisions, 3u);
  EXPECT_EQ(artifact.spans, 3u);
  EXPECT_EQ(artifact.requested, 2u);
  EXPECT_EQ(artifact.granted, 1u);
  EXPECT_EQ(artifact.retries, 1u);
  EXPECT_EQ(artifact.timeouts, 0u);
  EXPECT_EQ(artifact.max_herding_ratio, 6.0);
  EXPECT_EQ(artifact.final_l_inf, 4.0);
  EXPECT_EQ(artifact.final_l2, 2.25);
  ASSERT_EQ(artifact.findings.size(), 1u);
  EXPECT_EQ(artifact.findings[0].resource, 3);
  EXPECT_EQ(artifact.findings[0].ratio, 6.0);
  EXPECT_EQ(report.total_findings(), 1u);
  // Findings without drift gate at 1.
  EXPECT_EQ(exit_code(report), 1);
}

TEST(Report, GoldenMarkdownRender) {
  const Report report = full_fixture_report();
  EXPECT_EQ(render_markdown(report), read_file(fixture_path("golden_report.md")));
}

TEST(Report, RenderJsonRoundTripsThroughTheParser) {
  const Report report = full_fixture_report();
  const json::Value doc = json::parse(render_json(report));
  EXPECT_EQ(doc.find("exit")->as_number(), 1.0);
  EXPECT_EQ(doc.find("findings")->as_number(), 1.0);
  EXPECT_EQ(doc.find("traces")->items().size(), 2u);
  EXPECT_EQ(doc.find("decisions")
                ->items()[0]
                .find("max_herding_ratio")
                ->as_number(),
            6.0);
}

TEST(Report, UnknownKeyIsSchemaDriftAndGatesAt2) {
  Report report;
  ingest_fixture("drift.jsonl", report);
  ASSERT_FALSE(report.schema_issues.empty());
  EXPECT_NE(report.schema_issues[0].message.find("surprise"),
            std::string::npos);
  EXPECT_EQ(report.schema_issues[0].line, 2u);
  EXPECT_EQ(exit_code(report), 2);
}

TEST(Report, MissingRequiredKeyIsSchemaDrift) {
  Report report;
  ingest_text("m.jsonl", "{\"metric\":\"a\",\"type\":\"counter\"}\n", report);
  ASSERT_EQ(report.schema_issues.size(), 1u);
  EXPECT_NE(report.schema_issues[0].message.find("value"), std::string::npos);
}

TEST(Report, MissingEndMarkerIsSchemaDrift) {
  Report report;
  ingest_text("t.jsonl",
              "{\"event\":\"begin\",\"protocol\":\"p\",\"users\":1,"
              "\"resources\":1,\"seed\":1,\"threads\":1,\"mode\":\"dense\"}\n",
              report);
  ASSERT_EQ(report.schema_issues.size(), 1u);
  EXPECT_NE(report.schema_issues[0].message.find("end marker"),
            std::string::npos);
}

TEST(Report, EndCountMismatchIsSchemaDrift) {
  Report report;
  ingest_text(
      "d.jsonl",
      "{\"kind\":\"begin\",\"protocol\":\"p\",\"users\":1,\"resources\":1,"
      "\"seed\":1,\"threads\":1,\"mode\":\"dense\",\"sample_every\":1}\n"
      "{\"kind\":\"end\",\"decisions\":7,\"spans\":0,\"findings\":0}\n",
      report);
  ASSERT_EQ(report.schema_issues.size(), 1u);
  EXPECT_NE(report.schema_issues[0].message.find("disagrees"),
            std::string::npos);
}

TEST(Report, MultiBlockBenchArtifactAggregatesAcrossBlocks) {
  // Bench decision artifacts hold one begin/end block per (rep, mode); the
  // end-count cross-check is per block while aggregates span the file.
  const std::string block_a =
      "{\"kind\":\"begin\",\"protocol\":\"p\",\"users\":4,\"resources\":2,"
      "\"seed\":1,\"threads\":1,\"mode\":\"dense\",\"sample_every\":2}\n"
      "{\"kind\":\"decision\",\"round\":1,\"user\":0,\"from\":0,\"probe\":1,"
      "\"target\":1,\"to\":1,\"threshold\":3,\"requested\":true,"
      "\"granted\":true,\"satisfied_before\":false,\"satisfied_after\":true}\n"
      "{\"kind\":\"end\",\"decisions\":1,\"spans\":0,\"findings\":0}\n";
  const std::string block_b =
      "{\"kind\":\"begin\",\"protocol\":\"p\",\"users\":4,\"resources\":2,"
      "\"seed\":1,\"threads\":1,\"mode\":\"active\",\"sample_every\":2}\n"
      "{\"kind\":\"decision\",\"round\":1,\"user\":2,\"from\":1,\"probe\":0,"
      "\"target\":0,\"to\":0,\"threshold\":3,\"requested\":true,"
      "\"granted\":true,\"satisfied_before\":false,\"satisfied_after\":true}\n"
      "{\"kind\":\"end\",\"decisions\":1,\"spans\":0,\"findings\":0}\n";
  Report report;
  ingest_text("bench.jsonl", block_a + block_b, report);
  EXPECT_TRUE(report.schema_issues.empty());
  ASSERT_EQ(report.decisions.size(), 1u);
  EXPECT_EQ(report.decisions[0].decisions, 2u);
  EXPECT_EQ(report.decisions[0].mode, "active");  // last block's header
}

TEST(Report, MalformedAndUnclassifiableInputIsReported) {
  Report report;
  ingest_text("bad.jsonl", "not json at all\n", report);
  ingest_text("odd.jsonl", "{\"what\":1}\n", report);
  ingest_text("empty.jsonl", "\n\n", report);
  EXPECT_EQ(report.schema_issues.size(), 3u);
  EXPECT_EQ(exit_code(report), 2);
  Report missing;
  ingest_file("/nonexistent/artifact.jsonl", missing);
  ASSERT_EQ(missing.schema_issues.size(), 1u);
  EXPECT_EQ(missing.schema_issues[0].line, 0u);
}

// A hostile line must fail the way any malformed line does: one schema
// issue and exit 2, not a crash of the analyzer.
TEST(Report, DeeplyNestedLineIsSchemaDriftNotACrash) {
  Report report;
  ingest_text("deep.jsonl", std::string(100000, '[') + "\n", report);
  ASSERT_EQ(report.schema_issues.size(), 1u);
  EXPECT_NE(report.schema_issues[0].message.find("nesting"), std::string::npos)
      << report.schema_issues[0].message;
  EXPECT_EQ(exit_code(report), 2);
}

TEST(Report, CleanArtifactsGateAtZero) {
  Report report;
  ingest_fixture("metrics_a.jsonl", report);
  ingest_fixture("trace_a.jsonl", report);
  EXPECT_TRUE(report.schema_issues.empty());
  EXPECT_EQ(report.total_findings(), 0u);
  EXPECT_EQ(exit_code(report), 0);
  const std::string markdown = render_markdown(report);
  EXPECT_NE(markdown.find("Verdict: CLEAN (exit 0)"), std::string::npos);
}

/// `text` with a space after every ':' and ',', which keeps JSON valid and
/// makes each number a whitespace-delimited token the mutator can swap.
std::string spaced(const std::string& text) {
  std::string out;
  for (const char c : text) {
    out += c;
    if (c == ':' || c == ',') out += ' ';
  }
  return out;
}

// Seeded mutation fuzz of the JSONL ingest (tests/text_mutator.hpp). Every
// file in report_fixtures, as written and spaced, is mutated and ingested
// next to the clean fixture set; the contract is that malformed lines
// append SchemaIssues and nothing throws, in the ingest or in any render.
TEST(ReportFuzz, MutatedFixturesIngestAndRenderWithoutThrowing) {
  constexpr std::uint64_t kMutants = 150;
  constexpr std::uint64_t kFuzzSeed = 0x5245504F5254;  // "REPORT"
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(QOSLB_REPORT_FIXTURES_DIR))
    names.push_back(entry.path().filename().string());
  std::sort(names.begin(), names.end());
  ASSERT_GE(names.size(), 7u);
  std::uint64_t drifted = 0;
  std::uint64_t mutants = 0;
  for (std::size_t f = 0; f < names.size(); ++f) {
    const std::string text = read_file(fixture_path(names[f]));
    for (const bool space : {false, true}) {
      const RoundRng streams(kFuzzSeed, 2 * f + (space ? 1 : 0));
      for (std::uint64_t i = 0; i < kMutants; ++i) {
        PhiloxEngine rng = streams.user_stream(i);
        const std::string mutant = mutate(space ? spaced(text) : text, rng);
        SCOPED_TRACE(names[f] + (space ? " spaced" : "") + ", mutant " +
                     std::to_string(i));
        Report report = full_fixture_report();
        const std::size_t clean_issues = report.schema_issues.size();
        ASSERT_NO_THROW({
          ingest_text(names[f], mutant, report);
          render_markdown(report);
          render_json(report);
          const int code = exit_code(report);
          EXPECT_TRUE(code >= 0 && code <= 2) << code;
        });
        ++mutants;
        if (report.schema_issues.size() > clean_issues) ++drifted;
      }
    }
  }
  EXPECT_GT(drifted, 0u);
  EXPECT_LT(drifted, mutants);
}

}  // namespace
}  // namespace qoslb::report
