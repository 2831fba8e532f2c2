#pragma once

// The qoslb-report analysis library (docs/observability.md). Ingests the
// repo's three telemetry artifact shapes — metrics JSONL (obs/metrics.cpp),
// per-round trace JSONL (obs/trace_sink.cpp), and decision/span/diag JSONL
// (obs/decision_sink.cpp) — schema-checks every line against the key
// arrays of obs/schema.hpp, and renders a merged Markdown/JSON report: convergence curves,
// phase/perf breakdowns, herding findings, and cross-run A/B deltas.
//
// The library is deliberately separate from the qoslb-report CLI so the
// golden tests can drive ingestion and rendering in-process on checked-in
// fixture artifacts.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace qoslb::report {

/// One line of a metrics JSONL artifact ("counter" | "gauge" | "histogram";
/// for histograms `value` carries the sample total).
struct MetricRow {
  std::string name;
  std::string type;
  double value = 0.0;
};

struct MetricsArtifact {
  std::string path;
  std::vector<MetricRow> rows;
};

/// Run header + per-round series from a trace JSONL artifact.
struct TraceArtifact {
  std::string path;
  std::string protocol;
  std::string mode;
  std::uint64_t users = 0;
  std::uint64_t resources = 0;
  std::uint64_t seed = 0;
  std::uint64_t threads = 0;
  std::vector<std::uint64_t> round_ids;  // includes the round-0 snapshot
  std::vector<std::uint64_t> unsatisfied;
  std::vector<std::uint64_t> migrations;
  std::vector<std::uint64_t> messages;
  std::vector<double> potential;
  bool saw_end = false;

  std::size_t rows() const { return unsatisfied.size(); }
  std::uint64_t last_round() const;
  std::uint64_t total_migrations() const;
  std::uint64_t total_messages() const;
  /// Round id of the first traced row with zero unsatisfied users; 0 when
  /// never reached.
  std::uint64_t rounds_to_satisfied() const;
};

struct HerdingFinding {
  std::string path;
  std::uint64_t round = 0;
  std::int64_t resource = -1;
  std::uint64_t inflow = 0;
  std::uint64_t outflow = 0;
  double ratio = 0.0;
};

/// Run header + aggregates from a decision/span/diag JSONL artifact.
struct DecisionsArtifact {
  std::string path;
  std::string protocol;
  std::string mode;
  std::uint64_t users = 0;
  std::uint64_t resources = 0;
  std::uint64_t seed = 0;
  std::uint64_t threads = 0;
  std::uint64_t sample_every = 1;
  std::uint64_t decisions = 0;
  std::uint64_t spans = 0;
  std::uint64_t requested = 0;
  std::uint64_t granted = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  double max_herding_ratio = 0.0;
  double final_l_inf = 0.0;
  double final_l2 = 0.0;
  std::vector<HerdingFinding> findings;
  bool saw_end = false;
  /// Bench artifacts hold one begin/end block per (rep, mode); aggregates
  /// span the whole file, while the end-count cross-check is per block.
  std::uint64_t block_start_decisions = 0;
};

/// One schema-drift observation: a line that failed to parse, carried an
/// unexpected key, or dropped a required one. Any issue makes exit_code 2.
struct SchemaIssue {
  std::string path;
  std::size_t line = 0;  // 1-based; 0 = whole-file problem
  std::string message;
};

struct Report {
  std::vector<MetricsArtifact> metrics;
  std::vector<TraceArtifact> traces;
  std::vector<DecisionsArtifact> decisions;
  std::vector<SchemaIssue> schema_issues;

  std::size_t total_findings() const;
};

/// Ingests one JSONL artifact, classifying it by its first line (a "metric"
/// key → metrics, "event"/"round" → trace, "kind" → decisions). Malformed
/// lines and unknown shapes append SchemaIssues instead of throwing; an
/// unreadable file is a whole-file SchemaIssue.
void ingest_file(const std::string& path, Report& report);

/// Same, from in-memory text; `path_label` names the artifact in output.
void ingest_text(const std::string& path_label, const std::string& text,
                 Report& report);

std::string render_markdown(const Report& report);
std::string render_json(const Report& report);

/// 0 clean · 1 detector findings · 2 schema drift (drift dominates).
int exit_code(const Report& report);

}  // namespace qoslb::report
