#pragma once

#include "core/state.hpp"

namespace qoslb {

/// Progress measures used by the convergence analyses and recorded in traces.

/// Rosenthal-style congestion potential Σ_r Σ_{k=1..ℓ_r} k / s_r. Strictly
/// decreases under any quality-improving unilateral move, so it certifies
/// termination of the best-response and Berenbrink dynamics. Takes either
/// model's state: in the weighted model ℓ_r is the weight load, so the sum
/// runs over weight units. Instantiated for both in core/potential.cpp.
template <typename Model>
double rosenthal_potential(const BasicState<Model>& state);

/// Σ_u max(0, q_u − quality(u)): total quality deficit; 0 iff all satisfied.
double quality_deficit(const State& state);

/// Variance of the load vector (balance measure for the Berenbrink baseline).
double load_variance(const State& state);

}  // namespace qoslb
