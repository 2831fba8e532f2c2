// The telemetry schema (obs/schema.hpp) pinned from both sides. The JSONL
// sinks must write every line shape with exactly the table's keys, in the
// table's order — qoslb-report checks artifacts against the same table, so
// a sink and the analyzer cannot drift apart. And docs/observability.md
// must document every schema key and every metric name the engine can
// register.

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/decision_sink.hpp"
#include "obs/schema.hpp"
#include "qoslb.hpp"
#include "util/json.hpp"

namespace qoslb::obs {
namespace {

using Shape = std::span<const std::string_view>;

std::vector<json::Value> parse_lines(const std::string& text) {
  std::vector<json::Value> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(json::parse(line));
  return lines;
}

void expect_shape(const json::Value& line, Shape shape) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : line.members()) keys.push_back(key);
  EXPECT_EQ(keys, std::vector<std::string>(shape.begin(), shape.end()));
}

/// Every backticked span of docs/observability.md.
std::vector<std::string> doc_spans() {
  std::ifstream in(QOSLB_OBSERVABILITY_DOC);
  EXPECT_TRUE(in.is_open()) << QOSLB_OBSERVABILITY_DOC;
  std::ostringstream text;
  text << in.rdbuf();
  const std::string doc = text.str();
  static const std::regex kSpan("`([^`\r\n]+)`");
  std::vector<std::string> spans;
  for (auto it = std::sregex_iterator(doc.begin(), doc.end(), kSpan);
       it != std::sregex_iterator(); ++it)
    spans.push_back((*it)[1].str());
  return spans;
}

TEST(ObsSchema, SinksWriteEveryLineShapeInTableOrder) {
  TraceRunInfo info;
  info.protocol = "uniform(lambda=0.5)";
  info.mode = "dense";

  std::ostringstream trace;
  JsonlTraceSink trace_sink(trace);
  trace_sink.begin_run(info);
  trace_sink.row(TraceRow{});
  trace_sink.end_run();
  const std::vector<json::Value> t = parse_lines(trace.str());
  ASSERT_EQ(t.size(), 3u);
  expect_shape(t[0], schema::kTraceBegin);
  expect_shape(t[1], schema::kTraceRow);
  expect_shape(t[2], schema::kTraceEnd);

  std::ostringstream decisions;
  JsonlDecisionSink decision_sink(decisions);
  decision_sink.begin_run(info, 4);
  decision_sink.decision(DecisionEvent{});
  decision_sink.span(SpanEvent{});
  decision_sink.diag(DiagRow{});
  decision_sink.finding(DecisionFinding{});
  decision_sink.end_run();
  const std::vector<json::Value> d = parse_lines(decisions.str());
  ASSERT_EQ(d.size(), 6u);
  expect_shape(d[0], schema::kDecisionsBegin);
  expect_shape(d[1], schema::kDecision);
  expect_shape(d[2], schema::kSpan);
  expect_shape(d[3], schema::kDiag);
  expect_shape(d[4], schema::kFinding);
  expect_shape(d[5], schema::kDecisionsEnd);

  MetricsRegistry registry;
  registry.add(registry.counter("c"), 1);
  registry.set(registry.gauge("g"), 0.5);
  registry.observe(registry.histogram("h", 0.0, 10.0, 2), 3.0);
  std::ostringstream metrics;
  registry.write_jsonl(metrics);
  const std::vector<json::Value> m = parse_lines(metrics.str());
  ASSERT_EQ(m.size(), 3u);
  expect_shape(m[0], schema::kMetricValue);
  expect_shape(m[1], schema::kMetricValue);
  expect_shape(m[2], schema::kHistogram);
  const std::vector<json::Value>& buckets = m[2].find("buckets")->items();
  ASSERT_EQ(buckets.size(), 1u);
  expect_shape(buckets[0], schema::kHistogramBucket);
}

// A key counts as documented when a span is the key itself or a JSON
// example that contains it quoted (`{"lo":...,"hi":...}`).
TEST(ObsSchema, EveryKeyIsDocumented) {
  const std::vector<std::string> spans = doc_spans();
  const Shape shapes[] = {
      schema::kMetricValue,    schema::kHistogram, schema::kHistogramBucket,
      schema::kTraceBegin,     schema::kTraceRow,  schema::kTraceEnd,
      schema::kDecisionsBegin, schema::kDecision,  schema::kSpan,
      schema::kDiag,           schema::kFinding,   schema::kDecisionsEnd};
  for (const Shape shape : shapes) {
    for (const std::string_view key : shape) {
      const std::string quoted = '"' + std::string(key) + '"';
      bool documented = false;
      for (const std::string& span : spans)
        documented = documented || span == key ||
                     span.find(quoted) != std::string::npos;
      EXPECT_TRUE(documented) << "undocumented JSONL key \"" << key << '"';
    }
  }
}

/// Metric names a registry holds, read back from its JSONL.
std::vector<std::string> metric_names(const MetricsRegistry& registry) {
  std::ostringstream out;
  registry.write_jsonl(out);
  std::vector<std::string> names;
  for (const json::Value& line : parse_lines(out.str()))
    names.push_back(line.find("metric")->as_string());
  return names;
}

// Every metric registration in src/ is in core/engine.cpp: export_metrics()
// plus the engine/active_set_size histogram. Two runs reach every branch of
// export_metrics(); the per-phase perf gauges come from kPerfFields, since
// the counters read zero (and register nothing) where perf_event_open is
// denied. In the docs, `<phase>` stands for each phase_name().
TEST(ObsSchema, EveryEngineMetricIsDocumented) {
  std::set<std::string> catalog;
  for (const std::string& span : doc_spans()) {
    catalog.insert(span);
    const std::size_t at = span.find("<phase>");
    if (at == std::string::npos) continue;
    for (std::size_t i = 0; i < kNumPhases; ++i)
      catalog.insert(std::string(span).replace(
          at, 7, phase_name(static_cast<Phase>(i))));
  }

  Xoshiro256 gen(1);
  const Instance instance = make_uniform_feasible(400, 16, 0.5, 1.5, gen);
  SteadyClock clock;

  // Sync: active mode, churn, clock, trace and decision sinks, perf.
  MetricsRegistry sync_metrics;
  std::ostringstream trace;
  JsonlTraceSink trace_sink(trace);
  std::ostringstream decisions;
  JsonlDecisionSink decision_sink(decisions);
  PerfCounters perf;
  EngineConfig config;
  config.mode = EngineMode::kActive;
  config.max_rounds = 1000;
  config.churn.fail(5, 1);
  config.telemetry.metrics = &sync_metrics;
  config.telemetry.sink = &trace_sink;
  config.telemetry.decisions = &decision_sink;
  config.telemetry.clock = &clock;
  config.telemetry.perf = &perf;
  ProtocolSpec spec;
  spec.kind = "uniform";
  spec.lambda = 0.5;
  const auto protocol = make_protocol(spec);
  State state = State::all_on(instance, 0);
  Xoshiro256 rng(7);
  const EngineResult sync_run = Engine(config).run(*protocol, state, rng);
  ASSERT_GT(sync_run.churn.failures, 0u);

  // Async: the DES with a fault plan that drops messages.
  MetricsRegistry async_metrics;
  EngineConfig async_config;
  async_config.seed = 11;
  async_config.random_start = false;
  async_config.faults.drop_all(0.1);
  async_config.telemetry.metrics = &async_metrics;
  const EngineResult des_run =
      Engine(async_config).run_async_admission(instance);
  ASSERT_GT(des_run.faults.total(), 0u);
  ASSERT_GT(des_run.events, 0u);

  std::vector<std::string> names = metric_names(sync_metrics);
  for (const std::string& name : metric_names(async_metrics))
    names.push_back(name);
  for (std::size_t i = 0; i < kNumPhases; ++i)
    for (const PerfField& field : kPerfFields)
      names.push_back(std::string("perf/") +
                      phase_name(static_cast<Phase>(i)) + "_" + field.suffix);
  for (const std::string& name : names)
    EXPECT_EQ(catalog.count(name), 1u) << "undocumented metric " << name;
}

}  // namespace
}  // namespace qoslb::obs
