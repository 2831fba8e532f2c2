#include "core/protocols/sampling.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <span>
#include <string>

#include "core/io/text_codec.hpp"
#include "core/protocols/common.hpp"
#include "rng/distributions.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace qoslb {

SamplingProtocol::SamplingProtocol(Rule rule, double migrate_prob,
                                   int probes_per_round, const Graph* graph)
    : Protocol(kTraits),
      rule_(rule),
      migrate_prob_(migrate_prob),
      probes_(probes_per_round),
      graph_(graph) {
  QOSLB_REQUIRE(migrate_prob > 0.0 && migrate_prob <= 1.0,
                "migrate_prob must be in (0,1]");
  QOSLB_REQUIRE(rule == Rule::kLambda || migrate_prob == 1.0,
                "only the lambda rule takes a migration probability");
  QOSLB_REQUIRE(probes_per_round >= 1, "need at least one probe per round");
  QOSLB_REQUIRE(rule != Rule::kAdaptive || graph == nullptr,
                "adaptive sampling has no graph variant");
}

std::string SamplingProtocol::name() const {
  std::string kind = rule_ == Rule::kLambda     ? "uniform"
                     : rule_ == Rule::kAdaptive ? "adaptive"
                                                : "admission";
  if (graph_ != nullptr) kind = "nbr-" + kind;
  std::string params;
  if (rule_ == Rule::kLambda)
    params = "lambda=" + format_exact(migrate_prob_);
  if (probes_ != 1)
    params += (params.empty() ? "k=" : ",k=") + std::to_string(probes_);
  return params.empty() ? kind : kind + "(" + params + ")";
}

namespace {

/// The candidate sources of the decide body. probe_from(current) readies
/// the candidates of a user on `current` and says whether it has any;
/// draw_probe(u, rng) draws one (kNoResource for a failed probe).

/// The user's reachable set, through sample_reachable().
struct ReachableCandidates {
  const State& state;

  bool probe_from(ResourceId) const { return true; }
  Probe draw_probe(UserId u, PhiloxEngine& rng) const {
    return sample_reachable(state, u, rng);
  }
};

/// The neighbours of the user's resource on the resource graph.
struct NeighbourCandidates {
  const State& state;
  const Graph& graph;
  std::span<const Vertex> neighbours = {};

  bool probe_from(ResourceId current) {
    neighbours = graph.neighbors(current);
    return !neighbours.empty();
  }
  Probe draw_probe(UserId u, PhiloxEngine& rng) const {
    const ResourceId r = neighbours[uniform_u64_below(rng, neighbours.size())];
    // A dead or unreachable neighbour is drawn (keeping the draw count, and
    // thus the stream position, identical to a churn-free run on an
    // unrestricted instance) but never targeted.
    if (!reachable_target(state, u, r)) return {};
    return {r, state.instance().threshold(u, r)};
  }
};

/// The contention window may still be unsized on the first round (it is only
/// rolled forward in commit_round, which must not race the decide fan-out);
/// an unsized window reads as zero intents everywhere.
std::uint32_t intent_at(const std::vector<std::uint32_t>& intents,
                        ResourceId r) {
  return r < intents.size() ? intents[r] : 0;
}

}  // namespace

void SamplingProtocol::step_users(const State& state,
                                  const std::vector<int>& snapshot,
                                  const UserId* users, std::size_t count,
                                  MigrationBuffer& out, const RoundRng& streams,
                                  Counters& counters) const {
  if (rule_ == Rule::kAdaptive &&
      out.resource_tallies.size() != state.num_resources())
    out.resource_tallies.assign(state.num_resources(), 0);
  if (graph_ == nullptr) {
    decide_sampled(ReachableCandidates{state}, state, snapshot, users, count,
                   out, streams, counters);
    return;
  }
  QOSLB_REQUIRE(graph_->num_vertices() == state.num_resources(),
                "resource graph size mismatch");
  decide_sampled(NeighbourCandidates{state, *graph_}, state, snapshot, users,
                 count, out, streams, counters);
}

template <typename Candidates>
void SamplingProtocol::decide_sampled(Candidates candidates, const State& state,
                                      const std::vector<int>& snapshot,
                                      const UserId* users, std::size_t count,
                                      MigrationBuffer& out,
                                      const RoundRng& streams,
                                      Counters& counters) const {
  const Instance& instance = state.instance();
  const ResourceId* assignment = state.assignment().data();
  // Branchless SoA pass first, probe loop only over the survivors — the
  // per-user draws and append order match the historical inline prefilter
  // bit-for-bit (unsatisfied_prefilter contract).
  for_each_acting_user(*this, state, snapshot, users, count, out, streams,
                       [&](UserId u, PhiloxEngine& rng) {
    const ResourceId current = assignment[u];
    ResourceId best = kNoResource;
    int best_threshold = 0;
    double best_quality = 0.0;
    const int probes = candidates.probe_from(current) ? probes_ : 0;
    for (int probe = 0; probe < probes; ++probe) {
      const auto [r, threshold] = candidates.draw_probe(u, rng);
      ++counters.probes;
      if (r == kNoResource || r == current) continue;
      if (snapshot[r] + 1 > threshold) continue;
      // Quality only ranks one probe against another.
      const double quality =
          probes_ == 1 ? 0.0 : instance.quality(u, r, snapshot[r] + 1);
      if (best == kNoResource || quality > best_quality) {
        best = r;
        best_threshold = threshold;
        best_quality = quality;
      }
    }
    bool requested = false;
    if (best != kNoResource) {
      double p = migrate_prob_;  // λ, or 1 (no draw) under kAdmission
      if (rule_ == Rule::kAdaptive) {
        ++out.resource_tallies[best];
        const std::uint32_t contention = std::max(
            intent_at(last_intents_, best), intent_at(prev_intents_, best));
        p = std::min(1.0, static_cast<double>(best_threshold - snapshot[best]) /
                              std::max<std::uint32_t>(1, contention));
      }
      requested = bernoulli(rng, p);
    }
    if (requested) out.requests.push_back(MigrationRequest{u, best});
    // Decision tracing last, after every draw for u, so attaching a sink
    // cannot shift the stream (prefilter survivors are unsatisfied). Whether
    // an admission request is granted is resolved by the engine after the
    // commit.
    if (out.decisions != nullptr && out.decisions->sampled(u))
      out.decisions->records.push_back(DecisionRecord{
          u, current, best, requested ? best : kNoResource, best_threshold,
          false});
  });
}

void SamplingProtocol::commit_round(State& state,
                                    std::vector<MigrationBuffer>& shards,
                                    Counters& counters) {
  if (rule_ == Rule::kAdmission) {
    merge_shard_requests(shards, merge_scratch_);
    apply_with_admission(state, merge_scratch_, counters);
    return;
  }
  if (rule_ == Rule::kAdaptive) {
    // Roll the window: round t-1's intents become round t-2's, and the
    // storage of the old t-2 window takes this round's, so once both
    // windows are sized the roll allocates nothing.
    std::swap(prev_intents_, last_intents_);
    last_intents_.assign(state.num_resources(), 0);
    for (const MigrationBuffer& shard : shards)
      for (std::size_t r = 0; r < shard.resource_tallies.size(); ++r)
        last_intents_[r] += shard.resource_tallies[r];
  }
  Protocol::commit_round(state, shards, counters);  // apply every request
}

bool SamplingProtocol::is_stable(const State& state) const {
  if (graph_ == nullptr) return is_satisfaction_equilibrium(state);
  return state.for_each_unsatisfied([&](UserId u) {
    for (const ResourceId r : graph_->neighbors(state.resource_of(u)))
      if (reachable_target(state, u, r) && satisfied_after_move(state, u, r))
        return false;
    return true;
  });
}

void SamplingProtocol::snapshot_write(std::ostream& out) const {
  if (rule_ != Rule::kAdaptive) return;
  TextWriter text(out);
  text.block("last_intents", last_intents_);
  text.block("prev_intents", prev_intents_);
}

void SamplingProtocol::snapshot_read(std::istream& in) {
  if (rule_ != Rule::kAdaptive) return;
  TextReader text(in, "qoslb adaptive snapshot");
  const auto intents = [&text] {
    return static_cast<std::uint32_t>(text.id(
        "an intent count", std::uint64_t{1} << 32));
  };
  last_intents_ = text.block<std::uint32_t>("last_intents", intents);
  prev_intents_ = text.block<std::uint32_t>("prev_intents", intents);
}

}  // namespace qoslb
