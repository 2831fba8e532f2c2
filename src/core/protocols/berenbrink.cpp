#include "core/protocols/berenbrink.hpp"

#include <algorithm>

#include "core/protocols/common.hpp"
#include "rng/distributions.hpp"

namespace qoslb {

void BerenbrinkBalancing::step_users(const State& state,
                                     const std::vector<int>& snapshot,
                                     const UserId* users, std::size_t count,
                                     MigrationBuffer& out,
                                     const RoundRng& streams,
                                     Counters& counters) const {
  const Instance& instance = state.instance();
  // QoS-oblivious: every user probes every round (no unsatisfied prefilter —
  // the protocol is not active_set_compatible), so the loop streams the raw
  // assignment array directly.
  const ResourceId* assignment = state.assignment().data();
  const int* thresholds = state.current_thresholds().data();
  for_each_acting_user(*this, state, snapshot, users, count, out, streams,
                       [&](UserId u, PhiloxEngine& rng) {
    const ResourceId current = assignment[u];
    const auto [r, threshold] = sample_reachable(state, u, rng);
    ++counters.probes;
    // Normalized (capacity-relative) loads handle related resources; for
    // identical capacities this reduces to the original integer rule.
    bool requested = false;
    ResourceId probe = kNoResource;
    if (r != kNoResource && r != current) {
      probe = r;
      const double src = static_cast<double>(snapshot[current]) / instance.capacity(current);
      const double dst = static_cast<double>(snapshot[r] + 1) / instance.capacity(r);
      if (dst < src && bernoulli(rng, 1.0 - dst / src)) {
        requested = true;
        out.requests.push_back(MigrationRequest{u, r});
      }
    }
    // Decision tracing last, after every draw for u. The dynamic is
    // QoS-oblivious, so — unlike the prefiltered protocols — sampled users
    // can be satisfied at the round boundary; record which.
    if (out.decisions != nullptr && out.decisions->sampled(u))
      out.decisions->records.push_back(DecisionRecord{
          u, current, probe, requested ? probe : kNoResource,
          probe != kNoResource ? threshold : 0,
          snapshot[current] <= thresholds[u]});
  });
}

bool BerenbrinkBalancing::is_stable(const State& state) const {
  const Instance& instance = state.instance();
  // Stability quantifies over migration targets, and only live resources are
  // targets — a dead (evicted, load-0) resource must not keep the spread open.
  const auto& live = state.live_resources();
  // The min/max-spread shortcut needs every user to see every live resource
  // as a potential target, so restricted instances take the general scan.
  if (instance.identical_capacities() && !instance.restricted()) {
    int min_load = state.load(live[0]);
    int max_load = min_load;
    for (const ResourceId r : live) {
      min_load = std::min(min_load, state.load(r));
      max_load = std::max(max_load, state.load(r));
    }
    return max_load - min_load <= 1;
  }
  for (UserId u = 0; u < state.num_users(); ++u) {
    const ResourceId current = state.resource_of(u);
    // The migration rule compares *normalized loads*, not user-rate-scaled
    // qualities, so stability must quantify over the same objective.
    const double own = instance.quality(current, state.load(current));
    for (const ResourceId r : live) {
      if (r == current || !reachable_target(state, u, r)) continue;
      if (instance.quality(r, state.load(r) + 1) > own) return false;
    }
  }
  return true;
}

}  // namespace qoslb
