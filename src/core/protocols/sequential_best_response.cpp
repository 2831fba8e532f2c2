#include "core/protocols/sequential_best_response.hpp"

#include "core/satisfaction.hpp"
#include "core/weighted/weighted_state.hpp"
#include "rng/distributions.hpp"

namespace qoslb {

template <typename Model>
void BasicSequentialBestResponse<Model>::step(BasicState<Model>& state,
                                              Xoshiro256& rng,
                                              Counters& counters) {
  const auto try_move = [&](UserId u) {
    counters.probes += state.num_resources();
    const ResourceId best = best_satisfying_deviation(state, u);
    if (best == kNoResource) return false;
    state.move(u, best);
    ++counters.migrations;
    return true;
  };

  if (order_ == Order::kRoundRobin) {
    // Scan at most n users from the cursor.
    for (std::size_t scanned = 0; scanned < state.num_users(); ++scanned) {
      const UserId u = cursor_;
      cursor_ = static_cast<UserId>((cursor_ + 1) % state.num_users());
      if (!state.satisfied(u) && try_move(u)) return;
    }
    return;
  }
  // Pick random unsatisfied users until one can actually move (bounded by
  // the candidate count so a stuck state terminates the step).
  std::vector<UserId> candidates = unsatisfied_users(state);
  while (!candidates.empty()) {
    const std::size_t idx = uniform_u64_below(rng, candidates.size());
    if (try_move(candidates[idx])) return;
    candidates[idx] = candidates.back();
    candidates.pop_back();
  }
}

template class BasicSequentialBestResponse<Instance>;
template class BasicSequentialBestResponse<WeightedInstance>;

}  // namespace qoslb
