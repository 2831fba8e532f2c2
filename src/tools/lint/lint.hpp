#pragma once

#include <string>
#include <vector>

// qoslb-lint: the repo's determinism-contract static-analysis pass.
//
// The engine's headline guarantee — bit-identical trajectories across
// dense/active execution modes and any thread count — rests on source-level
// conventions (all randomness through per-(seed, round, user) Philox
// substreams, no order-dependent container walks in hot paths, no wall-clock
// reads in the simulation core). This pass encodes those conventions as
// machine-checked rules over the source tree.
//
// v2 grew the single token scanner into a whole-program pipeline:
//   pass 1  lexer.hpp          file discovery + three lexed views per file
//   pass 2  include_graph.hpp  quoted-include graph (QL011 layering)
//   pass 3  symbols.hpp        function/struct index over src/**
//   pass 4  callgraph.hpp      conservative name-based call graph
//   rules   rules.hpp          11 rules, QL001..QL015, over the four passes
// No libclang: the passes are deliberately simple enough to run anywhere the
// repo builds. See docs/static-analysis.md for the full contract.
namespace qoslb::lint {

/// One registered rule: stable ID (QLxxx) plus a one-line summary.
struct RuleInfo {
  const char* id;
  const char* summary;
};

/// Every rule, in ID order.
const std::vector<RuleInfo>& rules();

/// One violation. `file` is relative to the scanned root with '/' separators;
/// `line` is 1-based (0 for tree-level findings with no anchor line). For
/// the call-graph rule (QL015), `why` holds the root-to-finding
/// call chain, one `file:line function` step per entry; empty otherwise.
struct Finding {
  std::string rule;
  std::string file;
  int line = 0;
  std::string message;
  std::vector<std::string> why = {};
};

struct Options {
  /// Root of the tree to scan. Scans *.cpp/*.hpp/*.h/*.cc under it,
  /// skipping build trees (build*, bench-build, CMakeFiles, _deps, .git)
  /// and the checked-in violation fixtures (tests/lint_fixtures).
  std::string root;
};

/// Full analyzer output: the findings plus the graph dumps backing the
/// --graph-dump / --why explainers.
struct Analysis {
  std::vector<Finding> findings;
  std::string include_graph_dump;
  std::string call_graph_dump;
};

/// Runs every pass and every rule over the tree at options.root. Findings
/// are unsuppressed ones only, sorted by (file, line, rule, message). A
/// finding on line L is suppressed by a `// qoslb-lint: allow(QLxxx)`
/// comment on line L or on a directly preceding run of comment-only lines;
/// `// qoslb-lint: allow-file(QLxxx)` anywhere in a file suppresses the rule
/// for the whole file.
Analysis analyze(const Options& options);

/// Findings-only convenience wrapper around analyze().
std::vector<Finding> run(const Options& options);

/// Renders findings in the human `file:line: [QLxxx] message` form, or the
/// machine-consumable `rule<TAB>file<TAB>line` form when `fix_list` is set.
std::string format(const std::vector<Finding>& findings, bool fix_list);

/// Renders findings as a SARIF 2.1.0 log (one run, one result per finding,
/// rule metadata from rules(); artifact URIs are root-relative paths).
std::string sarif(const std::vector<Finding>& findings);

}  // namespace qoslb::lint
