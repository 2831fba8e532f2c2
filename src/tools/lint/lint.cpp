#include "tools/lint/lint.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <tuple>
#include <utility>

#include "tools/lint/callgraph.hpp"
#include "tools/lint/include_graph.hpp"
#include "tools/lint/rules.hpp"
#include "tools/lint/symbols.hpp"

// The orchestrator: one file-discovery pass builds the Tree, the three
// derived passes (include graph, symbol index, call graph) build on it, and
// every rule group runs over the shared Context. Suppression filtering and
// canonical ordering happen here, once, for all rules.
namespace qoslb::lint {

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {"QL001",
       "unkeyed randomness (rand, mt19937, random_device, shuffle, sample) "
       "outside src/rng/"},
      {"QL002",
       "unordered_map/set iteration in src/core/ or src/sim/"},
      {"QL003",
       "wall-clock or environment reads (system_clock, time(), getenv) in "
       "src/core/ or src/sim/"},
      {"QL004",
       "CMake reachability: every src/**/*.cpp must be listed in a "
       "CMakeLists.txt"},
      {"QL005",
       "float arithmetic in potential.* / satisfaction* accounting"},
      {"QL006", "stale paths in .clang-format-allowlist"},
      {"QL007",
       "steady-clock reads outside src/obs/ (and obs::SteadyClock "
       "instantiation anywhere in src/core/ or src/sim/)"},
      {"QL010",
       "thread spawning (std::thread construction, std::jthread, std::async, "
       "pthread_create) in src/core/ or src/sim/ outside "
       "sim/worker_pool.* — rounds must run on the persistent worker pool"},
      {"QL011",
       "include-graph layering: each src/ layer may include only the layers "
       "below it in the declared map (engine.{hpp,cpp} and core/async/ are "
       "the sanctioned core->sim/obs orchestration seam)"},
      {"QL014",
       "snapshot member coverage: every persistent member of a serialized "
       "struct must map to a keyword of its snapshot_write/snapshot_read "
       "hooks or of the checkpoint codec's field lists, or be annotated "
       "'// qoslb-snapshot: transient' / 'as(name)'"},
      {"QL015",
       "hot-path hygiene: no locks, heap allocation, or throw reachable from "
       "step_users/commit_round (suppress per call site with "
       "allow(QL015))"},
  };
  return kRules;
}

Analysis analyze(const Options& options) {
  const std::filesystem::path root =
      std::filesystem::path(options.root).lexically_normal();
  const Tree tree = collect_tree(root);
  const IncludeGraph includes = IncludeGraph::build(tree);
  const SymbolIndex symbols = SymbolIndex::build(tree);
  const CallGraph calls = CallGraph::build(tree, symbols);
  const Context ctx{tree, includes, symbols, calls};

  std::vector<Finding> findings;
  rules_tokens(ctx, findings);
  rules_contracts(ctx, findings);
  rules_layering(ctx, findings);
  rules_callgraph(ctx, findings);
  rules_snapshot(ctx, findings);

  Analysis analysis;
  for (Finding& fd : findings) {
    const SourceFile* f = find_file(tree.files, fd.file);
    if (f != nullptr && suppressed(*f, fd.line, fd.rule)) continue;
    analysis.findings.push_back(std::move(fd));
  }
  std::sort(analysis.findings.begin(), analysis.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  analysis.findings.erase(
      std::unique(analysis.findings.begin(), analysis.findings.end(),
                  [](const Finding& a, const Finding& b) {
                    return std::tie(a.file, a.line, a.rule, a.message) ==
                           std::tie(b.file, b.line, b.rule, b.message);
                  }),
      analysis.findings.end());
  analysis.include_graph_dump = includes.dump(tree);
  analysis.call_graph_dump = calls.dump(tree, symbols);
  return analysis;
}

std::vector<Finding> run(const Options& options) {
  return std::move(analyze(options).findings);
}

std::string format(const std::vector<Finding>& findings, bool fix_list) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    if (fix_list)
      out << f.rule << '\t' << f.file << '\t' << f.line << '\n';
    else
      out << f.file << ':' << f.line << ": [" << f.rule << "] " << f.message
          << '\n';
  }
  return out.str();
}

}  // namespace qoslb::lint
