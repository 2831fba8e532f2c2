// obs::TraceSink implementations — the JSONL/CSV schema goldens, the memory
// and tee sinks, the progress sink's thinned logging, and the
// engine-produced JSONL stream for an immediately-stable run (begin,
// round-0 snapshot, end). Plus the JsonlDecisionSink byte golden and the
// escaping both JSONL sinks share.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/potential.hpp"
#include "obs/decision_sink.hpp"
#include "qoslb.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace qoslb::obs {
namespace {

TraceRunInfo sample_info() {
  TraceRunInfo info;
  info.protocol = "uniform(lambda=0.5)";
  info.users = 100;
  info.resources = 10;
  info.seed = 42;
  info.threads = 4;
  info.mode = "dense";
  return info;
}

TraceRow sample_row() {
  TraceRow row;
  row.round = 3;
  row.unsatisfied = 17;
  row.migrations = 120;
  row.messages = 480;
  row.max_load = 15;
  row.potential = 2.5;
  row.active_size = 21;
  return row;
}

TEST(MemoryTraceSink, BuffersRunsAndRows) {
  MemoryTraceSink sink;
  sink.begin_run(sample_info());
  sink.row(sample_row());
  sink.row(sample_row());
  sink.end_run();
  ASSERT_EQ(sink.runs().size(), 1u);
  EXPECT_EQ(sink.runs()[0].protocol, "uniform(lambda=0.5)");
  ASSERT_EQ(sink.rows().size(), 2u);
  EXPECT_EQ(sink.rows()[1].unsatisfied, 17u);
  sink.clear();
  EXPECT_TRUE(sink.runs().empty());
  EXPECT_TRUE(sink.rows().empty());
}

TEST(JsonlTraceSink, SchemaGolden) {
  std::ostringstream out;
  JsonlTraceSink sink(out);
  sink.begin_run(sample_info());
  sink.row(sample_row());
  sink.end_run();
  EXPECT_EQ(out.str(),
            "{\"event\":\"begin\",\"protocol\":\"uniform(lambda=0.5)\","
            "\"users\":100,\"resources\":10,\"seed\":42,\"threads\":4,"
            "\"mode\":\"dense\"}\n"
            "{\"round\":3,\"unsatisfied\":17,\"migrations\":120,"
            "\"messages\":480,\"max_load\":15,\"potential\":2.5,"
            "\"active_size\":21}\n"
            "{\"event\":\"end\"}\n");
}

TEST(JsonlTraceSink, EscapesQuotesAndBackslashes) {
  std::ostringstream out;
  JsonlTraceSink sink(out);
  TraceRunInfo info = sample_info();
  info.protocol = "we\"ird\\name";
  sink.begin_run(info);
  EXPECT_NE(out.str().find("\"protocol\":\"we\\\"ird\\\\name\""),
            std::string::npos);
}

// One line of each of the six kinds, byte for byte: non-integral doubles go
// through the 12-significant-digit format, bools as JSON literals.
TEST(JsonlDecisionSink, SchemaGolden) {
  std::ostringstream out;
  JsonlDecisionSink sink(out);
  sink.begin_run(sample_info(), 8);
  DecisionEvent decision;
  decision.round = 3;
  decision.user = 7;
  decision.from = 1;
  decision.probe = 4;
  decision.target = 4;
  decision.to = 1;
  decision.threshold = 12;
  decision.requested = true;
  decision.granted = false;
  decision.satisfied_before = false;
  decision.satisfied_after = true;
  sink.decision(decision);
  SpanEvent span;
  span.span = (5u << 20) | 2u;
  span.user = 5;
  span.op = "retry";
  span.msg = "request";
  span.seq = 2;
  span.time = 2.75;
  sink.span(span);
  DiagRow diag;
  diag.round = 3;
  diag.migrations = 9;
  diag.inflow_max = 6;
  diag.inflow_argmax = 4;
  diag.outflow_at_argmax = 1;
  diag.herding_ratio = 6.0;
  diag.l_inf = 0.125;
  diag.l2 = 1.0 / 3.0;
  sink.diag(diag);
  sink.finding(DecisionFinding{"herding", 3, 4, 6, 1, 6.5});
  sink.end_run();
  EXPECT_EQ(out.str(),
            "{\"kind\":\"begin\",\"protocol\":\"uniform(lambda=0.5)\","
            "\"users\":100,\"resources\":10,\"seed\":42,\"threads\":4,"
            "\"mode\":\"dense\",\"sample_every\":8}\n"
            "{\"kind\":\"decision\",\"round\":3,\"user\":7,\"from\":1,"
            "\"probe\":4,\"target\":4,\"to\":1,\"threshold\":12,"
            "\"requested\":true,\"granted\":false,"
            "\"satisfied_before\":false,\"satisfied_after\":true}\n"
            "{\"kind\":\"span\",\"span\":5242882,\"user\":5,\"op\":\"retry\","
            "\"msg\":\"request\",\"target\":-1,\"seq\":2,\"time\":2.75}\n"
            "{\"kind\":\"diag\",\"round\":3,\"migrations\":9,"
            "\"inflow_max\":6,\"inflow_argmax\":4,\"outflow_at_argmax\":1,"
            "\"herding_ratio\":6,\"l_inf\":0.125,\"l2\":0.333333333333}\n"
            "{\"kind\":\"finding\",\"detector\":\"herding\",\"round\":3,"
            "\"resource\":4,\"inflow\":6,\"outflow\":1,\"ratio\":6.5}\n"
            "{\"kind\":\"end\",\"decisions\":1,\"spans\":1,\"findings\":1}\n");
}

// A protocol name is free text: control bytes in it must come out escaped,
// so each header stays one line that the repo's own reader accepts.
TEST(JsonlSinks, ControlBytesInTheProtocolNameRoundTrip) {
  TraceRunInfo info = sample_info();
  info.protocol = "tab\there\nnext line";
  std::ostringstream trace;
  JsonlTraceSink(trace).begin_run(info);
  std::ostringstream decisions;
  JsonlDecisionSink(decisions).begin_run(info, 1);
  for (const std::string& text : {trace.str(), decisions.str()}) {
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1) << text;
    const json::Value line = json::parse(text);
    EXPECT_EQ(line.find("protocol")->as_string(), info.protocol);
  }
}

TEST(CsvTraceSink, HeaderOncePerSinkThenRows) {
  std::ostringstream out;
  CsvTraceSink sink(out);
  sink.begin_run(sample_info());
  sink.row(sample_row());
  sink.end_run();
  sink.begin_run(sample_info());  // second run: no second header
  sink.row(sample_row());
  sink.end_run();
  EXPECT_EQ(out.str(),
            "round,unsatisfied,migrations,messages,max_load,potential,"
            "active_size\n"
            "3,17,120,480,15,2.5,21\n"
            "3,17,120,480,15,2.5,21\n");
}

TEST(TeeTraceSink, FansOutInOrderAndSkipsNulls) {
  MemoryTraceSink first;
  MemoryTraceSink second;
  TeeTraceSink tee;
  tee.add(&first);
  tee.add(nullptr);
  tee.add(&second);
  tee.begin_run(sample_info());
  tee.row(sample_row());
  tee.end_run();
  EXPECT_EQ(first.rows().size(), 1u);
  EXPECT_EQ(second.rows().size(), 1u);
  EXPECT_EQ(first.runs().size(), 1u);
}

class ScopedLogLevel {
 public:
  explicit ScopedLogLevel(LogLevel level) : previous_(Log::level()) {
    Log::set_level(level);
  }
  ~ScopedLogLevel() { Log::set_level(previous_); }

 private:
  LogLevel previous_;
};

TEST(ProgressTraceSink, LogsEveryNthRoundAndTheFinalRow) {
  ScopedLogLevel raise(LogLevel::kInfo);
  ProgressTraceSink sink(/*every=*/2);
  ::testing::internal::CaptureStderr();
  sink.begin_run(sample_info());  // 1 header line
  for (std::uint64_t r = 0; r <= 5; ++r) {
    TraceRow row = sample_row();
    row.round = r;
    sink.row(row);  // rounds 0, 2, 4 logged as they pass
  }
  sink.end_run();  // round 5 was unlogged: flushed here
  const std::string log = ::testing::internal::GetCapturedStderr();
  std::size_t lines = 0;
  for (const char c : log) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 5u) << log;
  EXPECT_NE(log.find("round 4"), std::string::npos);
  EXPECT_NE(log.find("round 5"), std::string::npos);
  EXPECT_EQ(log.find("round 3"), std::string::npos);
}

TEST(ProgressTraceSink, SilentBelowInfoLevel) {
  ScopedLogLevel quiet(LogLevel::kWarn);
  ProgressTraceSink sink;
  ::testing::internal::CaptureStderr();
  sink.begin_run(sample_info());
  sink.row(sample_row());
  sink.end_run();
  EXPECT_TRUE(::testing::internal::GetCapturedStderr().empty());
}

// The engine side of the schema: an already-stable state converges at round
// 0, so the stream is exactly begin + the round-0 snapshot + end, with the
// snapshot row describing the initial state.
TEST(EngineJsonl, ImmediatelyStableRunEmitsSnapshotOnly) {
  const Instance instance = Instance::identical(2, 1.0, {0.5, 0.5});
  State state = State::all_on(instance, 0);  // load 2 == threshold: stable

  std::ostringstream out;
  JsonlTraceSink sink(out);
  EngineConfig config;
  config.telemetry.sink = &sink;
  config.seed = 9;
  Xoshiro256 rng(123);
  Xoshiro256 probe(123);  // replicates the engine's one caller-RNG draw
  const std::uint64_t run_seed = derive_seed(config.seed, probe());

  ProtocolSpec spec;
  spec.kind = "uniform";
  spec.lambda = 0.5;
  const auto protocol = make_protocol(spec);
  const EngineResult result = Engine(config).run(*protocol, state, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.rounds, 0u);
  EXPECT_EQ(result.telemetry.trace_rows, 1u);

  std::ostringstream potential;
  potential.precision(12);
  potential << rosenthal_potential(state);
  const std::string expected =
      "{\"event\":\"begin\",\"protocol\":\"uniform(lambda=0.5)\",\"users\":2,"
      "\"resources\":2,\"seed\":" +
      std::to_string(run_seed) +
      ",\"threads\":1,\"mode\":\"dense\"}\n"
      "{\"round\":0,\"unsatisfied\":0,\"migrations\":0,\"messages\":0,"
      "\"max_load\":2,\"potential\":" +
      potential.str() +
      ",\"active_size\":0}\n"
      "{\"event\":\"end\"}\n";
  EXPECT_EQ(out.str(), expected);
}

}  // namespace
}  // namespace qoslb::obs
