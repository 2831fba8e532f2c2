#include "core/dynamics/hybrid.hpp"

#include "core/dynamics/quality_game.hpp"
#include "core/protocols/common.hpp"
#include "rng/distributions.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace qoslb {

HybridEpsilonGreedy::HybridEpsilonGreedy(double migrate_prob, double epsilon)
    : migrate_prob_(migrate_prob), epsilon_(epsilon) {
  QOSLB_REQUIRE(migrate_prob > 0.0 && migrate_prob <= 1.0,
                "migrate_prob must be in (0,1]");
  QOSLB_REQUIRE(epsilon >= 0.0 && epsilon <= 1.0, "epsilon in [0,1]");
}

std::string HybridEpsilonGreedy::name() const {
  return "hybrid(lambda=" + format_exact(migrate_prob_) +
         ",eps=" + format_exact(epsilon_) + ")";
}

void HybridEpsilonGreedy::step(State& state, Xoshiro256& rng,
                               Counters& counters) {
  const Instance& instance = state.instance();
  const std::vector<int> snapshot = state.loads();

  std::vector<MigrationRequest> moves;
  for (UserId u = 0; u < state.num_users(); ++u) {
    const ResourceId current = state.resource_of(u);
    const bool satisfied = snapshot[current] <= instance.threshold(u, current);

    if (!satisfied) {
      // Satisfaction phase: one probe, damped commit.
      const auto r = static_cast<ResourceId>(
          uniform_u64_below(rng, state.num_resources()));
      ++counters.probes;
      if (r == current) continue;
      if (snapshot[r] + 1 > instance.threshold(u, r)) continue;
      if (bernoulli(rng, migrate_prob_)) moves.push_back(MigrationRequest{u, r});
      continue;
    }

    // Quality phase: satisfied users polish with probability ε.
    if (epsilon_ == 0.0 || !bernoulli(rng, epsilon_)) continue;
    const auto r = static_cast<ResourceId>(
        uniform_u64_below(rng, state.num_resources()));
    ++counters.probes;
    if (r == current) continue;
    const double src =
        static_cast<double>(snapshot[current]) / instance.capacity(current);
    const double dst =
        static_cast<double>(snapshot[r] + 1) / instance.capacity(r);
    if (dst >= src) continue;
    // The quality move must not break the mover's own satisfaction (it
    // cannot: better quality implies a lower relative load), but it is still
    // gated by the improvement coin to avoid herding.
    if (bernoulli(rng, 1.0 - dst / src)) moves.push_back(MigrationRequest{u, r});
  }
  apply_all(state, moves, counters);
}

bool HybridEpsilonGreedy::is_stable(const State& state) const {
  if (epsilon_ == 0.0) return is_satisfaction_equilibrium(state);
  return is_quality_nash(state);
}

}  // namespace qoslb
