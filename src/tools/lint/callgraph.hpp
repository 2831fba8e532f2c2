#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "tools/lint/symbols.hpp"

// Pass 4 of the analyzer: a conservative name-based call graph over the
// symbol index. An identifier followed by `(` inside a function body is an
// edge to *every* project function with that name — no overload resolution,
// no virtual dispatch analysis. That over-approximation is exactly what the
// call-graph rule (QL015) wants: a finding is suppressed only
// when no name-plausible path exists, never because dispatch was guessed.
// Calls qualified with `std::` (or any non-project qualifier) are skipped.
namespace qoslb::lint {

class CallGraph {
 public:
  static CallGraph build(const Tree& tree, const SymbolIndex& index);

  /// BFS over the call graph from every function whose *name* is in
  /// `root_names`. Returns a parent array sized like functions(): npos for
  /// unreachable functions, the predecessor index for reached ones, and the
  /// function's own index for roots. Reached-ness is `parent[i] != npos`.
  std::vector<std::size_t> reachable_from(
      const SymbolIndex& index,
      const std::vector<std::string>& root_names) const;

  /// Root-to-`fn` call path (function indices) out of a parent array from
  /// reachable_from(); empty when `fn` was not reached.
  static std::vector<std::size_t> path_to(
      const std::vector<std::size_t>& parents, std::size_t fn);

  /// Human-readable `caller -> callee` adjacency (the --graph-dump output).
  std::string dump(const Tree& tree, const SymbolIndex& index) const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  std::vector<std::vector<std::size_t>> edges_;
};

}  // namespace qoslb::lint
