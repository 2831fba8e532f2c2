// qoslb-lint — the determinism-contract static-analysis pass.
//
// Scans a source tree for violations of the conventions the engine's
// bit-identical-replay guarantee rests on (see docs/static-analysis.md) and
// exits non-zero when any are found, so it can gate CI alongside the build
// and sanitizer jobs. Deliberately standalone: std library only, no libclang,
// no dependency on the simulation targets.
//
// Usage:
//   qoslb_lint [--root DIR] [--fix-list] [--list-rules] [--sarif PATH]
//              [--graph-dump] [--why QLxxx:file:line]
//
//   --root DIR    tree to scan (default: current directory)
//   --fix-list    machine-consumable output: rule<TAB>file<TAB>line
//   --list-rules  print the rule table and exit
//   --sarif PATH  additionally write the findings as a SARIF 2.1.0 log
//   --graph-dump  print the include graph and call graph instead of findings
//   --why SPEC    explain one finding (QLxxx:file:line): print its message
//                 and, for the call-graph rule, the root-to-site call chain
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "tools/lint/lint.hpp"

namespace {

int usage(std::ostream& out, int code) {
  out << "usage: qoslb_lint [--root DIR] [--fix-list] [--list-rules]\n"
         "                  [--sarif PATH] [--graph-dump] "
         "[--why QLxxx:file:line]\n";
  return code;
}

/// Parses `QLxxx:file:line` (line optional: `QLxxx:file` matches any line).
bool parse_why(const std::string& spec, std::string& rule, std::string& file,
               int& line) {
  const std::size_t first = spec.find(':');
  if (first == std::string::npos) return false;
  rule = spec.substr(0, first);
  const std::size_t last = spec.rfind(':');
  line = 0;
  if (last != first) {
    try {
      line = std::stoi(spec.substr(last + 1));
    } catch (...) {
      return false;
    }
    file = spec.substr(first + 1, last - first - 1);
  } else {
    file = spec.substr(first + 1);
  }
  return !rule.empty() && !file.empty();
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string sarif_path;
  std::string why_spec;
  bool fix_list = false;
  bool graph_dump = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (arg == "--list-rules") {
      for (const qoslb::lint::RuleInfo& rule : qoslb::lint::rules())
        std::cout << rule.id << "  " << rule.summary << "\n";
      return 0;
    } else if (arg == "--fix-list") {
      fix_list = true;
    } else if (arg == "--graph-dump") {
      graph_dump = true;
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (arg.rfind("--sarif=", 0) == 0) {
      sarif_path = arg.substr(8);
    } else if (arg == "--why" && i + 1 < argc) {
      why_spec = argv[++i];
    } else if (arg.rfind("--why=", 0) == 0) {
      why_spec = arg.substr(6);
    } else {
      std::cerr << "qoslb_lint: unknown argument '" << arg << "'\n";
      return usage(std::cerr, 2);
    }
  }
  if (!std::filesystem::is_directory(root)) {
    std::cerr << "qoslb_lint: '" << root << "' is not a directory\n";
    return 2;
  }

  qoslb::lint::Analysis analysis;
  try {
    analysis = qoslb::lint::analyze({root});
  } catch (const std::exception& e) {
    std::cerr << "qoslb_lint: " << e.what() << "\n";
    return 2;
  }
  const std::vector<qoslb::lint::Finding>& findings = analysis.findings;

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out) {
      std::cerr << "qoslb_lint: cannot write '" << sarif_path << "'\n";
      return 2;
    }
    out << qoslb::lint::sarif(findings);
  }

  if (graph_dump) {
    std::cout << "# include graph\n"
              << analysis.include_graph_dump << "# call graph\n"
              << analysis.call_graph_dump;
    return findings.empty() ? 0 : 1;
  }

  if (!why_spec.empty()) {
    std::string rule;
    std::string file;
    int line = 0;
    if (!parse_why(why_spec, rule, file, line)) {
      std::cerr << "qoslb_lint: --why expects QLxxx:file[:line], got '"
                << why_spec << "'\n";
      return 2;
    }
    bool found = false;
    for (const qoslb::lint::Finding& f : findings) {
      if (f.rule != rule || f.file != file || (line != 0 && f.line != line))
        continue;
      found = true;
      std::cout << f.file << ':' << f.line << ": [" << f.rule << "] "
                << f.message << "\n";
      if (f.why.empty()) {
        std::cout << "  (token-level finding: no call path)\n";
      } else {
        std::cout << "  call path (root first):\n";
        for (const std::string& step : f.why)
          std::cout << "    " << step << "\n";
      }
    }
    if (!found) {
      std::cerr << "qoslb_lint: no finding matches '" << why_spec << "'\n";
      return 2;
    }
    return 1;  // a matched finding means the tree is not clean
  }

  std::cout << qoslb::lint::format(findings, fix_list);
  if (findings.empty()) {
    std::cerr << "qoslb-lint: clean\n";
    return 0;
  }
  std::cerr << "qoslb-lint: " << findings.size()
            << " finding(s); suppress a deliberate exception with "
               "'// qoslb-lint: allow(QLxxx)'\n";
  return 1;
}
