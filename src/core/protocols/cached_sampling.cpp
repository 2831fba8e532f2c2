#include "core/protocols/cached_sampling.hpp"

#include <limits>

#include "core/protocols/common.hpp"
#include "rng/distributions.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace qoslb {

CachedSampling::CachedSampling(double migrate_prob, std::uint32_t ttl_rounds)
    : Protocol(kTraits), migrate_prob_(migrate_prob), ttl_(ttl_rounds) {
  QOSLB_REQUIRE(migrate_prob > 0.0 && migrate_prob <= 1.0,
                "migrate_prob must be in (0,1]");
}

std::string CachedSampling::name() const {
  return "cached(lambda=" + format_exact(migrate_prob_) +
         ",ttl=" + std::to_string(ttl_) + ")";
}

void CachedSampling::step(State& state, Xoshiro256& rng, Counters& counters) {
  const Instance& instance = state.instance();
  const std::vector<int> snapshot = state.loads();
  if (cached_load_.size() != state.num_resources()) {
    cached_load_.assign(state.num_resources(), 0);
    // "Never refreshed": pretend an ancient stamp so the first touch probes.
    cached_at_.assign(state.num_resources(),
                      std::numeric_limits<std::uint64_t>::max());
  }
  ++round_;

  std::vector<MigrationRequest> moves;
  for (UserId u = 0; u < state.num_users(); ++u) {
    const ResourceId current = state.resource_of(u);
    // Own-resource satisfaction is always known exactly (it is local).
    if (snapshot[current] <= instance.threshold(u, current)) continue;

    const auto r = static_cast<ResourceId>(
        uniform_u64_below(rng, state.num_resources()));
    if (r == current) continue;

    const bool stale = cached_at_[r] == std::numeric_limits<std::uint64_t>::max() ||
                       round_ - cached_at_[r] > ttl_;
    if (stale) {
      ++counters.probes;  // a fresh probe costs a round trip
      cached_load_[r] = snapshot[r];
      cached_at_[r] = round_;
    }
    const int believed_load = cached_load_[r];
    if (believed_load + 1 > instance.threshold(u, r)) continue;
    if (bernoulli(rng, migrate_prob_)) moves.push_back(MigrationRequest{u, r});
  }
  apply_all(state, moves, counters);
}

}  // namespace qoslb
