#include "core/weighted/weighted_protocols.hpp"

#include <vector>

#include "core/protocols/common.hpp"
#include "rng/distributions.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace qoslb {
namespace {

/// Decision phase shared by the weighted round protocols: every unsatisfied
/// user, in ascending id order, probes one uniform resource and requests a
/// move if that resource's load plus its own weight fits its threshold
/// there. Nothing moves before every user has decided, so each reads the
/// round-boundary loads.
std::vector<MigrationRequest> collect_requests(const WeightedState& state,
                                               Xoshiro256& rng,
                                               Counters& counters) {
  const WeightedInstance& instance = state.instance();
  const std::vector<std::int64_t>& loads = state.loads();
  std::vector<MigrationRequest> requests;
  state.for_each_unsatisfied([&](UserId u) {
    const auto r = static_cast<ResourceId>(
        uniform_u64_below(rng, state.num_resources()));
    ++counters.probes;
    if (r != state.assignment()[u] &&
        loads[r] + instance.weight(u) <= instance.threshold(u, r))
      requests.push_back(MigrationRequest{u, r});
    return true;
  });
  return requests;
}

}  // namespace

WeightedUniformSampling::WeightedUniformSampling(double migrate_prob)
    : migrate_prob_(migrate_prob) {
  QOSLB_REQUIRE(migrate_prob > 0.0 && migrate_prob <= 1.0,
                "migrate_prob must be in (0,1]");
}

std::string WeightedUniformSampling::name() const {
  return "w-uniform(lambda=" + format_exact(migrate_prob_) + ")";
}

void WeightedUniformSampling::step(WeightedState& state, Xoshiro256& rng,
                                   Counters& counters) {
  for (const MigrationRequest& req : collect_requests(state, rng, counters)) {
    if (!bernoulli(rng, migrate_prob_)) continue;
    state.move(req.user, req.target);
    ++counters.migrations;
  }
}

void WeightedAdmissionControl::step(WeightedState& state, Xoshiro256& rng,
                                    Counters& counters) {
  apply_with_admission(state, collect_requests(state, rng, counters), counters);
}

}  // namespace qoslb
