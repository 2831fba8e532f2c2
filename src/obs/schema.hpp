#pragma once

#include <string_view>

// The telemetry JSONL schema, declared once: one array per line shape, keys
// in the order the sinks write them. qoslb-report checks every artifact line
// against these arrays (exact key-set equality), tests/obs_schema_test.cpp
// drives the sinks through every shape and requires each line's keys to
// equal its array in order, and the same test requires every key to appear
// backticked in docs/observability.md. The sinks keep writing literal keys,
// so each value stays next to the key it belongs to.
namespace qoslb::obs::schema {

// MetricsRegistry::write_jsonl (--metrics-out).
inline constexpr std::string_view kMetricValue[] = {"metric", "type", "value"};
inline constexpr std::string_view kHistogram[] = {
    "metric", "type", "total", "underflow", "overflow", "buckets"};
inline constexpr std::string_view kHistogramBucket[] = {"lo", "hi", "count"};

// JsonlTraceSink (--trace-out).
inline constexpr std::string_view kTraceBegin[] = {
    "event", "protocol", "users", "resources", "seed", "threads", "mode"};
inline constexpr std::string_view kTraceRow[] = {
    "round",    "unsatisfied", "migrations", "messages",
    "max_load", "potential",   "active_size"};
inline constexpr std::string_view kTraceEnd[] = {"event"};

// JsonlDecisionSink (--decisions-out).
inline constexpr std::string_view kDecisionsBegin[] = {
    "kind", "protocol", "users", "resources",
    "seed", "threads",  "mode",  "sample_every"};
inline constexpr std::string_view kDecision[] = {
    "kind", "round", "user", "from", "probe", "target", "to", "threshold",
    "requested", "granted", "satisfied_before", "satisfied_after"};
inline constexpr std::string_view kSpan[] = {
    "kind", "span", "user", "op", "msg", "target", "seq", "time"};
inline constexpr std::string_view kDiag[] = {
    "kind",          "round",         "migrations",
    "inflow_max",    "inflow_argmax", "outflow_at_argmax",
    "herding_ratio", "l_inf",         "l2"};
inline constexpr std::string_view kFinding[] = {
    "kind", "detector", "round", "resource", "inflow", "outflow", "ratio"};
inline constexpr std::string_view kDecisionsEnd[] = {
    "kind", "decisions", "spans", "findings"};

}  // namespace qoslb::obs::schema
