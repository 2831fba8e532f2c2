#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/satisfaction_index.hpp"
#include "core/weighted/weighted_instance.hpp"
#include "rng/xoshiro256.hpp"

namespace qoslb {

/// Assignment of weighted users to resources with exact integer weight-loads
/// maintained incrementally. Mirrors core/state.hpp for the weighted model.
class WeightedState {
 public:
  WeightedState(const WeightedInstance& instance,
                std::vector<ResourceId> assignment);

  static WeightedState all_on(const WeightedInstance& instance, ResourceId r);
  static WeightedState random(const WeightedInstance& instance, Xoshiro256& rng);

  const WeightedInstance& instance() const { return *instance_; }
  std::size_t num_users() const { return assignment_.size(); }
  std::size_t num_resources() const { return loads_.size(); }

  ResourceId resource_of(UserId u) const;
  std::int64_t load(ResourceId r) const;
  const std::vector<std::int64_t>& loads() const { return loads_; }

  void move(UserId u, ResourceId r);

  bool satisfied(UserId u) const;

  /// Turns on the incremental satisfaction index (mirrors
  /// State::enable_satisfaction_tracking; here a move sweeps a window of the
  /// mover's weight, so a single move can flip many users).
  void enable_satisfaction_tracking();
  bool satisfaction_tracking() const { return index_.has_value(); }

  /// Unsatisfied users, ascending (mirrors State::unsatisfied_view: a
  /// buffer refilled by each call, hence non-const); requires tracking.
  const std::vector<UserId>& unsatisfied_view();

  /// Visits the unsatisfied users in ascending order until `fn` returns
  /// false (mirrors State::for_each_unsatisfied: the index's bitmap with
  /// tracking, an O(n) scan without).
  template <typename Fn>
  bool for_each_unsatisfied(Fn&& fn) const {
    if (index_) return index_->for_each_unsatisfied(fn);
    for (UserId u = 0; u < num_users(); ++u)
      if (!satisfied(u) && !fn(u)) return false;
    return true;
  }

  std::size_t count_satisfied() const;
  std::size_t count_unsatisfied() const { return num_users() - count_satisfied(); }

  /// Total weight of satisfied users (the weighted welfare measure).
  std::uint64_t satisfied_weight() const;

  /// Recomputes the weight-loads and audits the satisfaction index (see
  /// SatisfactionIndex::check_consistency); throws on any mismatch.
  void check_invariants() const;

 private:
  const WeightedInstance* instance_;
  std::vector<ResourceId> assignment_;
  std::vector<std::int64_t> loads_;
  std::optional<SatisfactionIndex<std::int64_t>> index_;
};

/// Would user u be satisfied on r after moving there (its weight counted)?
bool weighted_satisfied_after_move(const WeightedState& state, UserId u,
                                   ResourceId r);

/// True iff no unsatisfied user has a satisfying deviation. O(n·m).
bool is_weighted_satisfaction_equilibrium(const WeightedState& state);

}  // namespace qoslb
