#include <regex>
#include <string>

#include "tools/lint/rules.hpp"

namespace qoslb::lint {

namespace {

// The per-round hot path QL015 guards: the Protocol::step_users() hook the
// engine's decide fan-out runs shard-concurrently, and commit_round(), which
// runs single-threaded but inside the round loop.
const std::vector<std::string>& hot_roots() {
  static const std::vector<std::string> kRoots = {"step_users",
                                                  "commit_round"};
  return kRoots;
}

/// The call chain behind a reachability finding, rendered one step per entry.
std::vector<std::string> render_path(const Context& ctx,
                                     const std::vector<std::size_t>& parents,
                                     std::size_t fn) {
  std::vector<std::string> out;
  for (const std::size_t step : CallGraph::path_to(parents, fn)) {
    const FunctionDef& def = ctx.symbols.functions()[step];
    out.push_back(ctx.tree.files[def.file].rel + ":" +
                  std::to_string(def.begin_line) + " " +
                  (def.qualifier.empty() ? "" : def.qualifier + "::") +
                  def.name);
  }
  return out;
}

// ---------------------------------------------------------------------------
// QL015 — hot-path hygiene
// ---------------------------------------------------------------------------

void rule_ql015(const Context& ctx, std::vector<Finding>& out) {
  static const std::vector<std::pair<std::regex, const char*>> kBanned = {
      {std::regex(
           R"(\bstd::(mutex|shared_mutex|recursive_mutex|lock_guard|unique_lock|scoped_lock|condition_variable)\b)"),
       "lock acquisition"},
      {std::regex(R"(\bstd::make_unique\b|\bstd::make_shared\b|\bnew\b|\bmalloc\s*\()"),
       "heap allocation"},
      {std::regex(R"(\bthrow\b)"), "throw"},
  };
  const std::vector<std::size_t> parents =
      ctx.calls.reachable_from(ctx.symbols, hot_roots());
  for (std::size_t i = 0; i < ctx.symbols.functions().size(); ++i) {
    if (parents[i] == CallGraph::npos) continue;
    const FunctionDef& fn = ctx.symbols.functions()[i];
    const std::vector<std::string>* lines = ctx.symbols.scan_lines(fn.file);
    if (lines == nullptr) continue;
    for (int line = fn.begin_line; line <= fn.end_line; ++line) {
      if (line < 1 || static_cast<std::size_t>(line) > lines->size()) continue;
      const std::string& text = (*lines)[static_cast<std::size_t>(line) - 1];
      for (const auto& [re, what] : kBanned) {
        if (!std::regex_search(text, re)) continue;
        Finding finding{"QL015", ctx.tree.files[fn.file].rel, line,
                        std::string(what) +
                            " reachable from the per-round hot path "
                            "(step_users/commit_round) — locks serialize the "
                            "shards, allocation and exceptions stall the "
                            "round loop; hoist it to setup or annotate the "
                            "call site with allow(QL015)"};
        finding.why = render_path(ctx, parents, i);
        out.push_back(std::move(finding));
      }
    }
  }
}

}  // namespace

void rules_callgraph(const Context& ctx, std::vector<Finding>& out) {
  rule_ql015(ctx, out);
}

}  // namespace qoslb::lint
