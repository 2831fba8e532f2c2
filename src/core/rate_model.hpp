#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "util/check.hpp"

namespace qoslb {

/// Which rate structure an instance carries (docs/heterogeneity.md).
enum class RateModelKind : std::uint8_t {
  kUniform,    // rate(u, r) == 1 for every pair — the paper's base model
  kMatrix,     // dense per-(user, resource) rates; rate 0 == unreachable
  kBipartite,  // sparse access graph: only listed (u, r) edges are reachable
};

/// One access-graph edge of a bipartite rate model.
struct RateEdge {
  UserId user = 0;
  ResourceId resource = 0;
  double rate = 1.0;
};

/// Per-(user, resource) service-rate structure (the heterogeneous model of
/// Yun & Proutière): user `u` on resource `r` at occupancy `ℓ` receives
/// quality `rate(u, r) · s_r / ℓ`, so `Instance::threshold(u, r)` becomes
/// `⌊rate(u, r) · s_r / q_u⌋`. A rate of 0 means `u` cannot use `r` at all
/// ("restricted assignment"). The uniform model carries no storage and
/// keeps the base model's zero-overhead fast path.
///
/// Immutable after construction, like Instance.
class RateModel {
 public:
  /// Uniform: every rate is 1 (the default).
  RateModel() = default;
  static RateModel uniform() { return {}; }

  /// Dense row-major n×m rate matrix. Rates must be finite and ≥ 0, and
  /// every user needs at least one positive rate — an empty reachable set
  /// is rejected loudly here rather than hanging a run later.
  static RateModel matrix(std::size_t num_users, std::size_t num_resources,
                          std::vector<double> rates);

  /// Sparse bipartite access graph. Rates must be finite and > 0 (absent
  /// edges are the zeros), (user, resource) pairs unique, and every user
  /// needs at least one edge. Edges may come in any order: a counting sort by
  /// user builds the rows in O(E + n), and a row whose edges did not arrive
  /// in ascending resource order is sorted on its own.
  static RateModel bipartite(std::size_t num_users, std::size_t num_resources,
                             std::vector<RateEdge> edges);

  /// The same access graph given as its rows (CSR): user u's edges are
  /// targets[offsets[u], offsets[u + 1]) with rates alongside, so there are
  /// offsets.size() - 1 users. Each row must list its resources in strictly
  /// ascending order; one checking walk then adopts the arrays. A generator
  /// that emits rows builds the model this way, without an edge list.
  static RateModel bipartite_rows(std::size_t num_resources,
                                  std::vector<std::uint64_t> offsets,
                                  std::vector<ResourceId> targets,
                                  std::vector<double> rates);

  RateModelKind kind() const { return kind_; }
  bool is_uniform() const { return kind_ == RateModelKind::kUniform; }

  /// Dimensions (0 for the uniform model, which fits any instance).
  std::size_t num_users() const { return num_users_; }
  std::size_t num_resources() const { return num_resources_; }

  /// True iff some user's reachable set is a proper subset of the resources
  /// (a zero matrix entry, or a bipartite user with degree < m). Sampling
  /// code gates on this: unrestricted models keep the whole-live-list draw
  /// bit-identical to the uniform model, restricted ones must draw from
  /// reachable().
  bool restricted() const { return restricted_; }

  /// rate(u, r): 1 for the uniform model, a matrix lookup, or a binary
  /// search over u's edges (0 when absent).
  double rate(UserId u, ResourceId r) const {
    if (kind_ == RateModelKind::kUniform) return 1.0;
    return rate_slow(u, r);
  }

  /// The resources user `u` can use, ascending. Available for bipartite
  /// and restricted matrix models — for the others the answer is "all of
  /// them" and no adjacency is materialized. The reachable sets are rows of
  /// one CSR array, whose entries the accessors below call edges.
  std::span<const ResourceId> reachable(UserId u) const {
    QOSLB_REQUIRE(!offsets_.empty(),
                  "reachable() is only materialized for restricted (or "
                  "bipartite) models");
    QOSLB_REQUIRE(u < num_users_, "user out of range");
    return {targets_.data() + offsets_[u], targets_.data() + offsets_[u + 1]};
  }

  /// The edge index of reachable(u)'s first entry: entry k of reachable(u)
  /// is edge row_begin(u) + k. Requires reachable sets and u < n.
  std::uint64_t row_begin(UserId u) const { return offsets_[u]; }

  /// The number of edges (0 without reachable sets).
  std::size_t num_edges() const { return targets_.size(); }

  /// The edge index of (u, r), found by one binary search of u's row, or
  /// kNoEdge when u cannot use r. Requires reachable sets and u < n.
  static constexpr std::uint64_t kNoEdge = ~std::uint64_t{0};
  std::uint64_t find_edge(UserId u, ResourceId r) const {
    const ResourceId* const begin = targets_.data() + offsets_[u];
    const ResourceId* const end = targets_.data() + offsets_[u + 1];
    const ResourceId* const it = std::lower_bound(begin, end, r);
    if (it == end || *it != r) return kNoEdge;
    return static_cast<std::uint64_t>(it - targets_.data());
  }

  /// Calls fn(u, r, rate) once per edge, in edge order (users ascending,
  /// each row's resources ascending), reading every rate by its index.
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    const bool matrix = kind_ == RateModelKind::kMatrix;
    for (UserId u = 0; u + 1 < offsets_.size(); ++u)
      for (std::uint64_t e = offsets_[u]; e < offsets_[u + 1]; ++e) {
        const ResourceId r = targets_[e];
        fn(u, r, matrix ? matrix_[u * num_resources_ + r] : edge_rates_[e]);
      }
  }

  // --- serialization accessors (snapshot / instance-io writers) ---
  /// kMatrix only: the n×m row-major rate values.
  const std::vector<double>& matrix_rates() const;
  /// kBipartite only: every edge, (user, resource) ascending.
  std::vector<RateEdge> edges() const;

 private:
  double rate_slow(UserId u, ResourceId r) const;

  RateModelKind kind_ = RateModelKind::kUniform;
  std::size_t num_users_ = 0;
  std::size_t num_resources_ = 0;
  bool restricted_ = false;
  std::vector<double> matrix_;            // kMatrix: n×m row-major
  std::vector<std::uint64_t> offsets_;    // CSR row offsets (n + 1 entries)
  std::vector<ResourceId> targets_;       // CSR columns, ascending per user
  std::vector<double> edge_rates_;        // kBipartite: parallel to targets_
};

}  // namespace qoslb
