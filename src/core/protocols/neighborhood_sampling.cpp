#include "core/protocols/neighborhood_sampling.hpp"

#include "core/protocols/common.hpp"
#include "rng/distributions.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace qoslb {

NeighborhoodSampling::NeighborhoodSampling(const Graph& resource_graph,
                                           Commit commit, double migrate_prob,
                                           int probes_per_round)
    : Protocol(kTraits),
      graph_(&resource_graph),
      commit_(commit),
      migrate_prob_(migrate_prob),
      probes_(probes_per_round) {
  QOSLB_REQUIRE(migrate_prob > 0.0 && migrate_prob <= 1.0,
                "migrate_prob must be in (0,1]");
  QOSLB_REQUIRE(probes_per_round >= 1, "need at least one probe per round");
}

std::string NeighborhoodSampling::name() const {
  return commit_ == Commit::kAdmission
             ? "nbr-admission"
             : "nbr-uniform(lambda=" + format_double(migrate_prob_, 3) + ")";
}

void NeighborhoodSampling::step_users(const State& state,
                                      const std::vector<int>& snapshot,
                                      const UserId* users, std::size_t count,
                                      MigrationBuffer& out,
                                      const RoundRng& streams,
                                      Counters& counters) const {
  const Instance& instance = state.instance();
  QOSLB_REQUIRE(graph_->num_vertices() == state.num_resources(),
                "resource graph size mismatch");
  const ResourceId* assignment = state.assignment().data();
  for_each_acting_user(*this, state, snapshot, users, count, streams,
                       [&](UserId u, PhiloxEngine& rng) {
    const ResourceId current = assignment[u];
    const auto neighbors = graph_->neighbors(current);
    if (neighbors.empty()) {
      if (out.decisions != nullptr && out.decisions->sampled(u))
        out.decisions->records.push_back(
            DecisionRecord{u, current, kNoResource, kNoResource, 0, false});
      return;
    }

    ResourceId best = kNoResource;
    double best_quality = 0.0;
    for (int probe = 0; probe < probes_; ++probe) {
      const ResourceId r = neighbors[uniform_u64_below(rng, neighbors.size())];
      ++counters.probes;
      // A dead or unreachable neighbor is drawn (keeping the draw count, and
      // thus the RNG stream position, identical to a churn-free run on an
      // unrestricted instance) but never targeted.
      if (!reachable_target(state, u, r)) continue;
      if (snapshot[r] + 1 > instance.threshold(u, r)) continue;
      const double quality = instance.quality(u, r, snapshot[r] + 1);
      if (best == kNoResource || quality > best_quality) {
        best = r;
        best_quality = quality;
      }
    }
    bool requested = false;
    if (best != kNoResource &&
        (commit_ != Commit::kOptimistic || bernoulli(rng, migrate_prob_))) {
      requested = true;
      out.requests.push_back(MigrationRequest{u, best});
    }
    // Decision tracing last, after every draw for u (the kOptimistic
    // bernoulli above draws exactly when the untraced path drew).
    if (out.decisions != nullptr && out.decisions->sampled(u))
      out.decisions->records.push_back(DecisionRecord{
          u, current, best, requested ? best : kNoResource,
          best != kNoResource ? instance.threshold(u, best) : 0, false});
  });
}

void NeighborhoodSampling::commit_round(State& state,
                                        std::vector<MigrationBuffer>& shards,
                                        Counters& counters) {
  if (commit_ == Commit::kAdmission) {
    merge_shard_requests(shards, merge_scratch_);
    apply_with_admission(state, merge_scratch_, counters);
    return;
  }
  for (MigrationBuffer& shard : shards) apply_all(state, shard.requests, counters);
}

namespace {

bool stable_user(const State& state, const Graph& graph, UserId u) {
  for (const ResourceId r : graph.neighbors(state.resource_of(u)))
    if (reachable_target(state, u, r) && satisfied_after_move(state, u, r))
      return false;
  return true;
}

}  // namespace

bool NeighborhoodSampling::is_stable(const State& state) const {
  return state.for_each_unsatisfied(
      [&](UserId u) { return stable_user(state, *graph_, u); });
}

}  // namespace qoslb
