#pragma once

#include <vector>

#include "tools/lint/callgraph.hpp"
#include "tools/lint/include_graph.hpp"
#include "tools/lint/lint.hpp"
#include "tools/lint/symbols.hpp"

// The rule layer: every QLxxx check, grouped by the analysis pass it runs
// on. Each group appends raw findings; the orchestrator (lint.cpp) applies
// suppressions and sorts.
namespace qoslb::lint {

/// Everything a rule may consult, built once per run by the orchestrator.
struct Context {
  const Tree& tree;
  const IncludeGraph& includes;
  const SymbolIndex& symbols;
  const CallGraph& calls;
};

/// QL001/QL002/QL003/QL005/QL007/QL010 — per-file token scans over the
/// blanked code view.
void rules_tokens(const Context& ctx, std::vector<Finding>& out);

/// QL004/QL006 — cross-file contract checks (CMake reachability,
/// allowlist staleness).
void rules_contracts(const Context& ctx, std::vector<Finding>& out);

/// QL011 — include-graph layering over the declared layer map.
void rules_layering(const Context& ctx, std::vector<Finding>& out);

/// QL015 — the call-graph rule (hot-path hygiene).
void rules_callgraph(const Context& ctx, std::vector<Finding>& out);

/// QL014 — snapshot member coverage (every persistent struct member against
/// the keywords of its serializer).
void rules_snapshot(const Context& ctx, std::vector<Finding>& out);

}  // namespace qoslb::lint
