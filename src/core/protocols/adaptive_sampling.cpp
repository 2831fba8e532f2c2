#include "core/protocols/adaptive_sampling.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>

#include "core/io/text_codec.hpp"
#include "core/protocols/common.hpp"
#include "rng/distributions.hpp"
#include "util/check.hpp"

namespace qoslb {

AdaptiveSampling::AdaptiveSampling(int probes_per_round)
    : Protocol(kTraits), probes_(probes_per_round) {
  QOSLB_REQUIRE(probes_per_round >= 1, "need at least one probe per round");
}

std::string AdaptiveSampling::name() const {
  return probes_ == 1 ? "adaptive" : "adaptive(k=" + std::to_string(probes_) + ")";
}

namespace {

/// The contention window may still be unsized on the first round (it is only
/// rolled forward in commit_round, which must not race the decide fan-out);
/// an unsized window reads as zero intents everywhere.
std::uint32_t intent_at(const std::vector<std::uint32_t>& intents,
                        ResourceId r) {
  return r < intents.size() ? intents[r] : 0;
}

}  // namespace

void AdaptiveSampling::step_users(const State& state,
                                  const std::vector<int>& snapshot,
                                  const UserId* users, std::size_t count,
                                  MigrationBuffer& out, const RoundRng& streams,
                                  Counters& counters) const {
  const Instance& instance = state.instance();
  if (out.resource_tallies.size() != state.num_resources())
    out.resource_tallies.assign(state.num_resources(), 0);

  const ResourceId* assignment = state.assignment().data();
  for_each_acting_user(*this, state, snapshot, users, count, streams,
                       [&](UserId u, PhiloxEngine& rng) {
    const ResourceId current = assignment[u];
    ResourceId best = kNoResource;
    int best_threshold = 0;
    double best_quality = 0.0;
    for (int probe = 0; probe < probes_; ++probe) {
      const auto [r, threshold] = sample_reachable(state, u, rng);
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
    if (best == kNoResource) {
      if (out.decisions != nullptr && out.decisions->sampled(u))
        out.decisions->records.push_back(
            DecisionRecord{u, current, kNoResource, kNoResource, 0, false});
      return;
    }
    ++out.resource_tallies[best];
    const int slack = best_threshold - snapshot[best];
    const std::uint32_t contention =
        std::max(intent_at(last_intents_, best), intent_at(prev_intents_, best));
    const double p = std::min(
        1.0, static_cast<double>(slack) / std::max<std::uint32_t>(1, contention));
    const bool requested = bernoulli(rng, p);
    if (requested) out.requests.push_back(MigrationRequest{u, best});
    if (out.decisions != nullptr && out.decisions->sampled(u))
      out.decisions->records.push_back(DecisionRecord{
          u, current, best, requested ? best : kNoResource, best_threshold,
          false});
  });
}

void AdaptiveSampling::commit_round(State& state,
                                    std::vector<MigrationBuffer>& shards,
                                    Counters& counters) {
  std::vector<std::uint32_t> intents(state.num_resources(), 0);
  for (const MigrationBuffer& shard : shards)
    for (std::size_t r = 0; r < shard.resource_tallies.size(); ++r)
      intents[r] += shard.resource_tallies[r];
  prev_intents_ = std::move(last_intents_);
  last_intents_ = std::move(intents);
  for (MigrationBuffer& shard : shards)
    apply_all(state, shard.requests, counters);
}

void AdaptiveSampling::snapshot_write(std::ostream& out) const {
  TextWriter text(out);
  text.block("last_intents", last_intents_);
  text.block("prev_intents", prev_intents_);
}

void AdaptiveSampling::snapshot_read(std::istream& in) {
  TextReader text(in, "qoslb adaptive snapshot");
  const auto intents = [&text] {
    return static_cast<std::uint32_t>(text.id(
        "an intent count", std::uint64_t{1} << 32));
  };
  last_intents_ = text.block<std::uint32_t>("last_intents", intents);
  prev_intents_ = text.block<std::uint32_t>("prev_intents", intents);
}

}  // namespace qoslb
