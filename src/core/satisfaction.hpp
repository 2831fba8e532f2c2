#pragma once

#include <vector>

#include "core/state.hpp"

namespace qoslb {

/// Satisfaction-equilibrium predicates (Definition in DESIGN.md §1): a user
/// has a *satisfying deviation* if some other resource would satisfy it after
/// the move; a state is a satisfaction equilibrium iff no unsatisfied user
/// has a satisfying deviation. Each takes either model's state (State or
/// WeightedState); the definitions are instantiated for both in
/// core/satisfaction.cpp.

/// Would user u be satisfied on resource r after moving there? Counts u's
/// weight in the destination load; true for r == current iff u is currently
/// satisfied.
template <typename Model>
bool satisfied_after_move(const BasicState<Model>& state, UserId u,
                          ResourceId r);

/// O(m) scan over the live resources.
template <typename Model>
bool has_satisfying_deviation(const BasicState<Model>& state, UserId u);

/// The satisfying deviation with the highest post-move quality, or
/// kNoResource. Ties break toward the lowest resource id.
template <typename Model>
ResourceId best_satisfying_deviation(const BasicState<Model>& state, UserId u);

/// True iff every user is satisfied or deviation-free. Uses an O(n + m)
/// fast path for identical capacities and uniform rates (only the two
/// smallest loads matter) and an O(n·m) scan otherwise.
template <typename Model>
bool is_satisfaction_equilibrium(const BasicState<Model>& state);

/// All users currently unsatisfied, ascending id.
template <typename Model>
std::vector<UserId> unsatisfied_users(const BasicState<Model>& state);

}  // namespace qoslb
