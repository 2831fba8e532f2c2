#include "core/satisfaction.hpp"

#include <limits>

#include "core/weighted/weighted_state.hpp"
#include "util/check.hpp"

namespace qoslb {

template <typename Model>
bool satisfied_after_move(const BasicState<Model>& state, UserId u,
                          ResourceId r) {
  const Model& instance = state.instance();
  const auto post_load = state.resource_of(u) == r
                             ? state.load(r)
                             : state.load(r) + instance.weight(u);
  return post_load <= instance.threshold(u, r);
}

template <typename Model>
bool has_satisfying_deviation(const BasicState<Model>& state, UserId u) {
  const ResourceId current = state.resource_of(u);
  // Dead resources are not migration targets, so they cannot ground a
  // deviation — otherwise a degraded world could never reach equilibrium.
  for (const ResourceId r : state.live_resources())
    if (r != current && satisfied_after_move(state, u, r)) return true;
  return false;
}

template <typename Model>
ResourceId best_satisfying_deviation(const BasicState<Model>& state, UserId u) {
  const Model& instance = state.instance();
  const ResourceId current = state.resource_of(u);
  ResourceId best = kNoResource;
  double best_quality = 0.0;
  for (const ResourceId r : state.live_resources()) {
    if (r == current || !satisfied_after_move(state, u, r)) continue;
    const double quality =
        instance.quality(u, r, state.load(r) + instance.weight(u));
    if (best == kNoResource || quality > best_quality) {
      best = r;
      best_quality = quality;
    }
  }
  return best;
}

namespace {

/// Identical-capacity fast path: a user has a satisfying deviation iff
/// min-load-excluding-own + its weight <= its threshold, so only the two
/// smallest loads (with an argmin) are needed.
template <typename Model>
bool equilibrium_identical(const BasicState<Model>& state) {
  using Load = typename Model::Load;
  const Model& instance = state.instance();
  const auto& loads = state.loads();
  // Only live resources can receive a deviation; with every resource live
  // the list is the identity and this is the historical all-resource scan.
  const auto& live = state.live_resources();
  ResourceId argmin = live[0];
  Load min1 = loads[argmin];
  Load min2 = std::numeric_limits<Load>::max();
  for (std::size_t i = 1; i < live.size(); ++i) {
    const ResourceId r = live[i];
    if (loads[r] < min1) {
      min2 = min1;
      min1 = loads[r];
      argmin = r;
    } else if (loads[r] < min2) {
      min2 = loads[r];
    }
  }
  return state.for_each_unsatisfied([&](UserId u) {
    const Load candidate = state.resource_of(u) == argmin ? min2 : min1;
    // min2 stays at the sentinel when only one resource is live: the user
    // sitting there has nowhere to deviate to.
    if (candidate == std::numeric_limits<Load>::max()) return true;
    // Thresholds are identical across resources for identical capacities.
    return candidate + instance.weight(u) > instance.threshold(u, 0);
  });
}

}  // namespace

template <typename Model>
bool is_satisfaction_equilibrium(const BasicState<Model>& state) {
  // The fast path relies on thresholds being identical across resources for
  // each user, which needs identical capacities AND uniform rates.
  if (state.instance().identical_capacities() &&
      state.instance().rate_model().is_uniform() && state.num_resources() > 1)
    return equilibrium_identical(state);
  // The equilibrium condition quantifies over unsatisfied users only, so a
  // tracked state checks O(|unsatisfied|) users, not O(n).
  return state.for_each_unsatisfied(
      [&](UserId u) { return !has_satisfying_deviation(state, u); });
}

template <typename Model>
std::vector<UserId> unsatisfied_users(const BasicState<Model>& state) {
  std::vector<UserId> out;
  state.for_each_unsatisfied([&](UserId u) {
    out.push_back(u);
    return true;
  });
  return out;
}

template bool satisfied_after_move(const State&, UserId, ResourceId);
template bool has_satisfying_deviation(const State&, UserId);
template ResourceId best_satisfying_deviation(const State&, UserId);
template bool is_satisfaction_equilibrium(const State&);
template std::vector<UserId> unsatisfied_users(const State&);

template bool satisfied_after_move(const WeightedState&, UserId, ResourceId);
template bool has_satisfying_deviation(const WeightedState&, UserId);
template ResourceId best_satisfying_deviation(const WeightedState&, UserId);
template bool is_satisfaction_equilibrium(const WeightedState&);
template std::vector<UserId> unsatisfied_users(const WeightedState&);

}  // namespace qoslb
