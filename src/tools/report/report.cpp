#include "tools/report/report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <span>
#include <sstream>
#include <string_view>

#include "obs/schema.hpp"
#include "util/json.hpp"

namespace qoslb::report {
namespace {

using qoslb::json::Value;
namespace schema = qoslb::obs::schema;

void issue(Report& report, const std::string& path, std::size_t line,
           std::string message) {
  report.schema_issues.push_back(SchemaIssue{path, line, std::move(message)});
}

/// Exact key-set check: every listed key present, nothing else. Unknown keys
/// are the load-bearing half — they are how schema drift in an emitter shows
/// up before any consumer starts silently ignoring data.
bool check_keys(const Value& obj, std::span<const std::string_view> expected,
                Report& report, const std::string& path, std::size_t line,
                const char* what) {
  bool ok = true;
  std::set<std::string> seen;
  for (const auto& [key, value] : obj.members()) seen.insert(key);
  for (const std::string_view key : expected) {
    if (seen.erase(std::string(key)) == 0) {
      issue(report, path, line,
            std::string(what) + " line missing key \"" + std::string(key) +
                '"');
      ok = false;
    }
  }
  for (const std::string& key : seen) {
    issue(report, path, line,
          std::string(what) + " line has unexpected key \"" + key + '"');
    ok = false;
  }
  return ok;
}

double num(const Value& obj, const char* key) {
  const Value* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

std::uint64_t unum(const Value& obj, const char* key) {
  const double v = num(obj, key);
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v);
}

std::int64_t inum(const Value& obj, const char* key) {
  return static_cast<std::int64_t>(num(obj, key));
}

bool flag(const Value& obj, const char* key) {
  const Value* v = obj.find(key);
  return v != nullptr && v->is_bool() && v->as_bool();
}

std::string str(const Value& obj, const char* key) {
  const Value* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

// ---- per-shape line handlers ----

void metrics_line(const Value& obj, MetricsArtifact& artifact, Report& report,
                  std::size_t line) {
  const std::string type = str(obj, "type");
  if (type == "counter" || type == "gauge") {
    check_keys(obj, schema::kMetricValue, report, artifact.path, line,
               "metric");
    artifact.rows.push_back(MetricRow{str(obj, "metric"), type,
                                      num(obj, "value")});
    return;
  }
  if (type == "histogram") {
    check_keys(obj, schema::kHistogram, report, artifact.path, line,
               "histogram");
    const Value* buckets = obj.find("buckets");
    if (buckets != nullptr && buckets->is_array())
      for (const Value& bucket : buckets->items())
        check_keys(bucket, schema::kHistogramBucket, report, artifact.path,
                   line, "histogram bucket");
    artifact.rows.push_back(
        MetricRow{str(obj, "metric"), type, num(obj, "total")});
    return;
  }
  issue(report, artifact.path, line,
        "metric line has unknown type \"" + type + '"');
}

void trace_line(const Value& obj, TraceArtifact& artifact, Report& report,
                std::size_t line) {
  if (obj.find("event") != nullptr) {
    const std::string event = str(obj, "event");
    if (event == "begin") {
      check_keys(obj, schema::kTraceBegin, report, artifact.path, line,
                 "trace begin");
      artifact.protocol = str(obj, "protocol");
      artifact.mode = str(obj, "mode");
      artifact.users = unum(obj, "users");
      artifact.resources = unum(obj, "resources");
      artifact.seed = unum(obj, "seed");
      artifact.threads = unum(obj, "threads");
    } else if (event == "end") {
      check_keys(obj, schema::kTraceEnd, report, artifact.path, line,
                 "trace end");
      artifact.saw_end = true;
    } else {
      issue(report, artifact.path, line,
            "trace line has unknown event \"" + event + '"');
    }
    return;
  }
  check_keys(obj, schema::kTraceRow, report, artifact.path, line,
             "trace row");
  artifact.round_ids.push_back(unum(obj, "round"));
  artifact.unsatisfied.push_back(unum(obj, "unsatisfied"));
  artifact.migrations.push_back(unum(obj, "migrations"));
  artifact.messages.push_back(unum(obj, "messages"));
  artifact.potential.push_back(num(obj, "potential"));
}

void decisions_line(const Value& obj, DecisionsArtifact& artifact,
                    Report& report, std::size_t line) {
  const std::string kind = str(obj, "kind");
  if (kind == "begin") {
    check_keys(obj, schema::kDecisionsBegin, report, artifact.path, line,
               "decisions begin");
    artifact.protocol = str(obj, "protocol");
    artifact.mode = str(obj, "mode");
    artifact.users = unum(obj, "users");
    artifact.resources = unum(obj, "resources");
    artifact.seed = unum(obj, "seed");
    artifact.threads = unum(obj, "threads");
    artifact.sample_every = std::max<std::uint64_t>(1, unum(obj, "sample_every"));
    artifact.block_start_decisions = artifact.decisions;
  } else if (kind == "decision") {
    check_keys(obj, schema::kDecision, report, artifact.path, line,
               "decision");
    ++artifact.decisions;
    if (flag(obj, "requested")) ++artifact.requested;
    if (flag(obj, "granted")) ++artifact.granted;
  } else if (kind == "span") {
    check_keys(obj, schema::kSpan, report, artifact.path, line, "span");
    ++artifact.spans;
    const std::string op = str(obj, "op");
    if (op == "retry") ++artifact.retries;
    if (op == "timeout") ++artifact.timeouts;
  } else if (kind == "diag") {
    check_keys(obj, schema::kDiag, report, artifact.path, line, "diag");
    artifact.max_herding_ratio =
        std::max(artifact.max_herding_ratio, num(obj, "herding_ratio"));
    artifact.final_l_inf = num(obj, "l_inf");
    artifact.final_l2 = num(obj, "l2");
  } else if (kind == "finding") {
    check_keys(obj, schema::kFinding, report, artifact.path, line,
               "finding");
    artifact.findings.push_back(HerdingFinding{
        artifact.path, unum(obj, "round"), inum(obj, "resource"),
        unum(obj, "inflow"), unum(obj, "outflow"), num(obj, "ratio")});
  } else if (kind == "end") {
    check_keys(obj, schema::kDecisionsEnd, report, artifact.path, line,
               "decisions end");
    artifact.saw_end = true;
    if (unum(obj, "decisions") !=
        artifact.decisions - artifact.block_start_decisions)
      issue(report, artifact.path, line,
            "decisions end count disagrees with the stream");
  } else {
    issue(report, artifact.path, line,
          "decisions line has unknown kind \"" + kind + '"');
  }
}

// ---- rendering helpers ----

/// Downsampled ASCII sparkline ("@" high, "." low) of a series; the report
/// embeds it in a code span so monospace alignment holds in Markdown.
std::string sparkline(const std::vector<std::uint64_t>& series,
                      std::size_t width = 60) {
  static const char kLevels[] = " .:-=+*#%@";
  if (series.empty()) return std::string();
  std::uint64_t peak = 1;
  for (const std::uint64_t v : series) peak = std::max(peak, v);
  const std::size_t points = std::min(width, series.size());
  std::string out;
  for (std::size_t i = 0; i < points; ++i) {
    // Max over the chunk, not a mean: a one-round herding spike must stay
    // visible after downsampling.
    const std::size_t begin = i * series.size() / points;
    const std::size_t end =
        std::max(begin + 1, (i + 1) * series.size() / points);
    std::uint64_t chunk = 0;
    for (std::size_t j = begin; j < end; ++j) chunk = std::max(chunk, series[j]);
    const std::size_t level = chunk == 0 ? 0 : 1 + chunk * 8 / peak;
    out += kLevels[std::min<std::size_t>(level, 9)];
  }
  return out;
}

std::string percent(std::uint64_t part, std::uint64_t whole) {
  if (whole == 0) return "n/a";
  std::ostringstream out;
  out.precision(3);
  out << 100.0 * static_cast<double>(part) / static_cast<double>(whole) << '%';
  return out.str();
}

bool starts_with(const std::string& text, const char* prefix) {
  return text.rfind(prefix, 0) == 0;
}

}  // namespace

std::uint64_t TraceArtifact::last_round() const {
  return round_ids.empty() ? 0 : round_ids.back();
}

std::uint64_t TraceArtifact::total_migrations() const {
  std::uint64_t total = 0;
  for (const std::uint64_t v : migrations) total += v;
  return total;
}

std::uint64_t TraceArtifact::total_messages() const {
  std::uint64_t total = 0;
  for (const std::uint64_t v : messages) total += v;
  return total;
}

std::uint64_t TraceArtifact::rounds_to_satisfied() const {
  for (std::size_t i = 0; i < unsatisfied.size(); ++i)
    if (unsatisfied[i] == 0) return round_ids[i];
  return 0;
}

std::size_t Report::total_findings() const {
  std::size_t total = 0;
  for (const DecisionsArtifact& artifact : decisions)
    total += artifact.findings.size();
  return total;
}

void ingest_text(const std::string& path_label, const std::string& text,
                 Report& report) {
  enum class Shape { kUndecided, kMetrics, kTrace, kDecisions };
  Shape shape = Shape::kUndecided;
  MetricsArtifact metrics{path_label, {}};
  TraceArtifact trace;
  trace.path = path_label;
  DecisionsArtifact decisions;
  decisions.path = path_label;

  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  bool any = false;        // at least one line classified
  bool saw_content = false;  // at least one non-empty line (even if broken)
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    saw_content = true;
    Value obj;
    try {
      obj = json::parse(line);
    } catch (const std::exception& error) {
      issue(report, path_label, lineno, error.what());
      continue;
    }
    if (!obj.is_object()) {
      issue(report, path_label, lineno, "artifact line is not a JSON object");
      continue;
    }
    any = true;
    if (shape == Shape::kUndecided) {
      if (obj.find("metric") != nullptr) shape = Shape::kMetrics;
      else if (obj.find("kind") != nullptr) shape = Shape::kDecisions;
      else if (obj.find("event") != nullptr || obj.find("round") != nullptr)
        shape = Shape::kTrace;
      else {
        issue(report, path_label, lineno,
              "unrecognized artifact shape (no metric/event/round/kind key)");
        return;
      }
    }
    switch (shape) {
      case Shape::kMetrics: metrics_line(obj, metrics, report, lineno); break;
      case Shape::kTrace: trace_line(obj, trace, report, lineno); break;
      case Shape::kDecisions:
        decisions_line(obj, decisions, report, lineno);
        break;
      case Shape::kUndecided: break;
    }
  }
  if (!any) {
    // Broken lines were already reported one by one; only a genuinely blank
    // file earns the catch-all.
    if (!saw_content) issue(report, path_label, 0, "artifact is empty");
    return;
  }
  switch (shape) {
    case Shape::kMetrics: report.metrics.push_back(std::move(metrics)); break;
    case Shape::kTrace:
      if (!trace.saw_end)
        issue(report, path_label, lineno, "trace stream has no end marker");
      report.traces.push_back(std::move(trace));
      break;
    case Shape::kDecisions:
      if (!decisions.saw_end)
        issue(report, path_label, lineno,
              "decisions stream has no end marker");
      report.decisions.push_back(std::move(decisions));
      break;
    case Shape::kUndecided: break;
  }
}

void ingest_file(const std::string& path, Report& report) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    issue(report, path, 0, "cannot open artifact");
    return;
  }
  std::ostringstream text;
  text << in.rdbuf();
  ingest_text(path, text.str(), report);
}

std::string render_markdown(const Report& report) {
  std::ostringstream out;
  out << "# qoslb-report\n\n";
  out << "Artifacts: " << report.metrics.size() << " metrics, "
      << report.traces.size() << " trace, " << report.decisions.size()
      << " decisions. Findings: " << report.total_findings()
      << ". Schema issues: " << report.schema_issues.size() << ".\n";

  if (!report.schema_issues.empty()) {
    out << "\n## Schema drift\n\n";
    for (const SchemaIssue& problem : report.schema_issues) {
      out << "- `" << problem.path << '`';
      if (problem.line != 0) out << " line " << problem.line;
      out << ": " << problem.message << '\n';
    }
  }

  if (!report.traces.empty()) {
    out << "\n## Convergence\n\n";
    for (const TraceArtifact& trace : report.traces) {
      out << "### " << trace.protocol << " (`" << trace.path << "`)\n\n";
      out << "- n=" << trace.users << " m=" << trace.resources
          << " seed=" << trace.seed << " threads=" << trace.threads
          << " mode=" << trace.mode << '\n';
      out << "- rounds: " << trace.last_round() << " (" << trace.rows()
          << " traced rows)";
      if (const std::uint64_t hit = trace.rounds_to_satisfied())
        out << ", all satisfied at round " << hit;
      else if (!trace.unsatisfied.empty())
        out << ", still " << trace.unsatisfied.back()
            << " unsatisfied at the end";
      out << '\n';
      out << "- migrations: " << trace.total_migrations()
          << ", messages: " << trace.total_messages() << '\n';
      if (!trace.potential.empty())
        out << "- potential: " << json::number(trace.potential.front())
            << " -> " << json::number(trace.potential.back()) << '\n';
      if (!trace.unsatisfied.empty())
        out << "- unsatisfied curve: `" << sparkline(trace.unsatisfied)
            << "`\n";
      if (!trace.migrations.empty())
        out << "- migration curve:   `" << sparkline(trace.migrations)
            << "`\n";
      out << '\n';
    }
    if (report.traces.size() >= 2) {
      const TraceArtifact& a = report.traces[0];
      const TraceArtifact& b = report.traces[1];
      out << "### A/B delta (`" << a.path << "` vs `" << b.path << "`)\n\n";
      out << "| series | A | B | delta |\n|---|---|---|---|\n";
      const auto row = [&out](const char* label, double va, double vb) {
        out << "| " << label << " | " << json::number(va) << " | "
            << json::number(vb) << " | " << json::number(vb - va) << " |\n";
      };
      row("rounds", static_cast<double>(a.last_round()),
          static_cast<double>(b.last_round()));
      row("rounds to satisfied", static_cast<double>(a.rounds_to_satisfied()),
          static_cast<double>(b.rounds_to_satisfied()));
      row("migrations", static_cast<double>(a.total_migrations()),
          static_cast<double>(b.total_migrations()));
      row("messages", static_cast<double>(a.total_messages()),
          static_cast<double>(b.total_messages()));
      if (!a.potential.empty() && !b.potential.empty())
        row("final potential", a.potential.back(), b.potential.back());
    }
  }

  if (!report.metrics.empty()) {
    out << "\n## Phase & perf breakdown\n\n";
    for (const MetricsArtifact& artifact : report.metrics) {
      out << "### `" << artifact.path << "`\n\n";
      bool any = false;
      for (const MetricRow& row : artifact.rows) {
        if (!starts_with(row.name, "phase/") &&
            !starts_with(row.name, "perf/"))
          continue;
        if (!any) out << "| metric | value |\n|---|---|\n";
        any = true;
        out << "| " << row.name << " | " << json::number(row.value) << " |\n";
      }
      if (!any) out << "(no phase/perf metrics in this artifact)\n";
      out << '\n';
    }
    if (report.metrics.size() >= 2) {
      const MetricsArtifact& a = report.metrics[0];
      const MetricsArtifact& b = report.metrics[1];
      out << "### A/B delta (`" << a.path << "` vs `" << b.path << "`)\n\n";
      out << "| metric | A | B | delta |\n|---|---|---|---|\n";
      for (const MetricRow& row : a.rows) {
        for (const MetricRow& other : b.rows) {
          if (other.name != row.name || other.type != row.type) continue;
          if (other.value == row.value) break;
          out << "| " << row.name << " | " << json::number(row.value) << " | "
              << json::number(other.value) << " | "
              << json::number(other.value - row.value) << " |\n";
          break;
        }
      }
    }
  }

  if (!report.decisions.empty()) {
    out << "\n## Decisions\n\n";
    for (const DecisionsArtifact& artifact : report.decisions) {
      out << "### " << artifact.protocol << " (`" << artifact.path << "`)\n\n";
      out << "- sampling 1/" << artifact.sample_every << ", "
          << artifact.decisions << " decisions, " << artifact.spans
          << " spans\n";
      out << "- requested " << artifact.requested << ", granted "
          << artifact.granted << " ("
          << percent(artifact.granted, artifact.requested)
          << " of requests)\n";
      if (artifact.spans > 0)
        out << "- retries " << artifact.retries << ", timeouts "
            << artifact.timeouts << '\n';
      out << "- max herding ratio " << json::number(artifact.max_herding_ratio)
          << ", final imbalance l_inf=" << json::number(artifact.final_l_inf)
          << " l2=" << json::number(artifact.final_l2) << '\n';
      out << '\n';
    }
  }

  if (report.total_findings() != 0) {
    out << "\n## Findings\n\n";
    out << "| artifact | detector | round | resource | inflow | outflow | "
           "ratio |\n|---|---|---|---|---|---|---|\n";
    for (const DecisionsArtifact& artifact : report.decisions)
      for (const HerdingFinding& finding : artifact.findings)
        out << "| `" << finding.path << "` | herding | " << finding.round
            << " | " << finding.resource << " | " << finding.inflow << " | "
            << finding.outflow << " | " << json::number(finding.ratio)
            << " |\n";
  }

  const int code = exit_code(report);
  out << "\nVerdict: "
      << (code == 0 ? "CLEAN"
                    : code == 1 ? "FINDINGS" : "SCHEMA DRIFT")
      << " (exit " << code << ")\n";
  return out.str();
}

std::string render_json(const Report& report) {
  std::ostringstream out;
  out << "{\"schema_issues\":[";
  for (std::size_t i = 0; i < report.schema_issues.size(); ++i) {
    const SchemaIssue& problem = report.schema_issues[i];
    if (i != 0) out << ',';
    out << "{\"path\":\"" << json::escape(problem.path) << "\",\"line\":"
        << problem.line << ",\"message\":\"" << json::escape(problem.message)
        << "\"}";
  }
  out << "],\"traces\":[";
  for (std::size_t i = 0; i < report.traces.size(); ++i) {
    const TraceArtifact& trace = report.traces[i];
    if (i != 0) out << ',';
    out << "{\"path\":\"" << json::escape(trace.path) << "\",\"protocol\":\""
        << json::escape(trace.protocol)
        << "\",\"rounds\":" << trace.last_round()
        << ",\"rounds_to_satisfied\":" << trace.rounds_to_satisfied()
        << ",\"migrations\":" << trace.total_migrations()
        << ",\"messages\":" << trace.total_messages() << '}';
  }
  out << "],\"decisions\":[";
  for (std::size_t i = 0; i < report.decisions.size(); ++i) {
    const DecisionsArtifact& artifact = report.decisions[i];
    if (i != 0) out << ',';
    out << "{\"path\":\"" << json::escape(artifact.path) << "\",\"protocol\":\""
        << json::escape(artifact.protocol)
        << "\",\"sample_every\":" << artifact.sample_every
        << ",\"decisions\":" << artifact.decisions
        << ",\"spans\":" << artifact.spans
        << ",\"requested\":" << artifact.requested
        << ",\"granted\":" << artifact.granted
        << ",\"retries\":" << artifact.retries
        << ",\"timeouts\":" << artifact.timeouts
        << ",\"max_herding_ratio\":"
        << json::number(artifact.max_herding_ratio)
        << ",\"findings\":" << artifact.findings.size() << '}';
  }
  out << "],\"metrics_artifacts\":" << report.metrics.size()
      << ",\"findings\":" << report.total_findings()
      << ",\"exit\":" << exit_code(report) << "}\n";
  return out.str();
}

int exit_code(const Report& report) {
  if (!report.schema_issues.empty()) return 2;
  if (report.total_findings() != 0) return 1;
  return 0;
}

}  // namespace qoslb::report
