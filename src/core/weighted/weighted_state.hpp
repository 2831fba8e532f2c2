#pragma once

#include "core/state.hpp"
#include "core/weighted/weighted_instance.hpp"

namespace qoslb {

/// The weighted model's state: BasicState (core/state.hpp) over weight
/// loads. The same code as the unit model's State; only the load unit
/// differs.
using WeightedState = BasicState<WeightedInstance>;

}  // namespace qoslb
