// qoslb-report — offline analyzer for the repo's telemetry artifacts
// (docs/observability.md).
//
// Ingests any mix of metrics / trace / decision JSONL files, schema-checks
// every line against obs/schema.hpp, and writes a merged report:
// convergence curves, phase/perf breakdowns, herding findings, and A/B
// deltas between the first two runs of each shape.
//
// Usage:
//   qoslb-report [--out=report.md] [--json=report.json] artifact.jsonl ...
//
// Without --out the Markdown report goes to stdout. Exit code: 0 clean,
// 1 detector findings, 2 schema drift or usage error — CI treats any
// non-zero exit as a gate failure.

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "tools/report/report.hpp"

namespace {

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string json_path;
  std::vector<std::string> artifacts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: qoslb-report [--out=report.md] "
                   "[--json=report.json] artifact.jsonl ...\n";
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "qoslb-report: unknown flag " << arg << "\n";
      return 2;
    } else {
      artifacts.push_back(arg);
    }
  }
  if (artifacts.empty()) {
    std::cerr << "usage: qoslb-report [--out=report.md] [--json=report.json] "
                 "artifact.jsonl ...\n";
    return 2;
  }

  qoslb::report::Report report;
  for (const std::string& path : artifacts)
    qoslb::report::ingest_file(path, report);

  const std::string markdown = qoslb::report::render_markdown(report);
  if (out_path.empty()) {
    std::cout << markdown;
  } else if (!write_file(out_path, markdown)) {
    std::cerr << "qoslb-report: cannot write " << out_path << "\n";
    return 2;
  }
  if (!json_path.empty() &&
      !write_file(json_path, qoslb::report::render_json(report))) {
    std::cerr << "qoslb-report: cannot write " << json_path << "\n";
    return 2;
  }

  const int code = qoslb::report::exit_code(report);
  if (code != 0)
    std::cerr << "qoslb-report: " << report.total_findings() << " findings, "
              << report.schema_issues.size() << " schema issues (exit "
              << code << ")\n";
  return code;
}
