#pragma once

#include <span>
#include <vector>

#include "core/rate_model.hpp"
#include "core/types.hpp"

namespace qoslb {

/// An instance of the QoS load-balancing problem (DESIGN.md §1).
///
/// `m` resources with capacities `s_r > 0` and `n` users with QoS
/// requirements `q_u > 0`. A resource serving `ℓ` users offers user `u`
/// quality `rate(u, r) · s_r / ℓ` (processor sharing scaled by the
/// per-(user, resource) service rate); user `u` is satisfied iff the
/// quality meets its requirement, i.e. iff `ℓ ≤ threshold(u, r)` with
/// `threshold(u, r) = ⌊rate(u, r) · s_r / q_u⌋`. The default RateModel is
/// uniform (`rate ≡ 1`, the paper's base model); see docs/heterogeneity.md
/// for the matrix and bipartite restricted-assignment forms.
///
/// Immutable after construction; States reference an Instance and must not
/// outlive it.
class Instance {
 public:
  /// The load and threshold type: a load counts users.
  using Load = int;

  /// Uniform rates: per-resource capacities, per-user requirements.
  Instance(std::vector<double> capacities, std::vector<double> requirements);

  /// Heterogeneous rates; `rates` dimensions must match (unless uniform).
  Instance(std::vector<double> capacities, std::vector<double> requirements,
           RateModel rates);

  /// All resources share one capacity (the paper's base model).
  static Instance identical(std::size_t m_resources, double capacity,
                            std::vector<double> requirements);

  std::size_t num_users() const { return requirements_.size(); }
  std::size_t num_resources() const { return capacities_.size(); }

  double capacity(ResourceId r) const;
  double requirement(UserId u) const;
  /// Every user weighs 1 in the unit model, so the total weight is n.
  int weight(UserId) const { return 1; }
  std::size_t total_weight() const { return num_users(); }
  const std::vector<double>& capacities() const { return capacities_; }
  const std::vector<double>& requirements() const { return requirements_; }

  /// Rate-agnostic quality of resource `r` at occupancy `load` (load ≥ 1):
  /// `s_r / load`, every user's quality under the uniform model.
  double quality(ResourceId r, int load) const;

  /// Quality user `u` experiences on `r` at occupancy `load`:
  /// `rate(u, r) · s_r / load`.
  double quality(UserId u, ResourceId r, int load) const;

  /// Service rate of the (u, r) pair; 0 means `u` cannot use `r`.
  double rate(UserId u, ResourceId r) const { return rates_.rate(u, r); }

  /// Maximum occupancy of `r` at which user `u` is still satisfied; 0 means
  /// `u` can never be satisfied on `r` (in particular for every unreachable
  /// pair). Clamped to num_users() (occupancy can never exceed n, so larger
  /// thresholds are indistinguishable). One load from the flat table when
  /// flat_thresholds_available(); under a bipartite model one binary search
  /// of u's row, which also decides reachability, then that edge's slot of
  /// the edge table; otherwise (varied capacities, a rate matrix) the O(1)
  /// formula.
  int threshold(UserId u, ResourceId r) const {
    QOSLB_REQUIRE(u < requirements_.size(), "user out of range");
    QOSLB_REQUIRE(r < capacities_.size(), "resource out of range");
    if (!flat_thresholds_.empty()) return flat_thresholds_[u];
    if (rates_.kind() == RateModelKind::kBipartite) {
      const std::uint64_t e = rates_.find_edge(u, r);
      return e == RateModel::kNoEdge ? 0 : edge_thresholds_[e];
    }
    return computed_threshold(u, r);
  }

  /// u's threshold on each resource of reachable(u), entry by entry: the
  /// row of the edge table, which holds one threshold per edge whenever the
  /// rate model has reachable sets (bipartite, or a matrix with a zero).
  /// A restricted probe reads the threshold of the edge it drew here.
  std::span<const int> reachable_thresholds(UserId u) const {
    const std::size_t degree = rates_.reachable(u).size();
    return {edge_thresholds_.data() + rates_.row_begin(u), degree};
  }

  /// True when threshold(u, r) is independent of r (identical capacities and
  /// uniform rates — the paper's base model); the values are then the
  /// precomputed flat_thresholds() table and threshold() is a table lookup.
  bool flat_thresholds_available() const { return !flat_thresholds_.empty(); }

  /// The per-user threshold table when flat_thresholds_available(); the
  /// round hot path streams this instead of calling threshold() per probe.
  std::span<const int> flat_thresholds() const { return flat_thresholds_; }

  /// True if every resource has the same capacity (enables the O(n+m)
  /// equilibrium fast path — which additionally needs uniform_rates()).
  bool identical_capacities() const { return identical_; }

  const RateModel& rate_model() const { return rates_; }
  bool uniform_rates() const { return rates_.is_uniform(); }

  /// True iff some user's reachable set is a proper subset of the
  /// resources. Protocols must restrict sampling to reachable() exactly
  /// when this holds; see Protocol::restricted_assignment_compatible().
  bool restricted() const { return rates_.restricted(); }

  /// The resources user `u` can use (rate > 0), ascending. Requires a
  /// restricted (or bipartite) rate model.
  std::span<const ResourceId> reachable(UserId u) const {
    return rates_.reachable(u);
  }

 private:
  std::vector<double> capacities_;
  std::vector<double> requirements_;
  std::vector<double> inv_requirements_;  // 1/q_u, precomputed for threshold()
  std::vector<int> flat_thresholds_;      // threshold(u, ·) when r-independent
  std::vector<int> edge_thresholds_;      // threshold of each reachable edge
  RateModel rates_;
  bool identical_ = true;

  /// threshold(u, r) by the formula; `u` and `r` are in range.
  int computed_threshold(UserId u, ResourceId r) const;
};

}  // namespace qoslb
