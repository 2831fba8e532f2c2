#include "core/protocol.hpp"

#include <numeric>

#include "core/protocols/common.hpp"
#include "core/weighted/weighted_state.hpp"
#include "util/check.hpp"

namespace qoslb {

template <typename Model>
void BasicProtocol<Model>::step(BasicState<Model>& state, Xoshiro256& rng,
                                Counters& counters) {
  QOSLB_REQUIRE(supports_step_users(),
                "protocol overrides neither step() nor step_users()");
  // Single-shard realization of the round: one draw of the caller's RNG
  // keys the round's per-user Philox substreams, so (protocol, rng state)
  // pins the realization exactly, and the outcome is bit-identical however
  // the user list is later split into shards.
  const std::vector<typename Model::Load> snapshot = state.loads();
  std::vector<UserId> users(state.num_users());
  std::iota(users.begin(), users.end(), UserId{0});
  std::vector<MigrationBuffer> shards(1);
  const RoundRng streams(rng(), 0);
  step_users(state, snapshot, users.data(), users.size(), shards[0], streams,
             counters);
  commit_round(state, shards, counters);
}

template <typename Model>
void BasicProtocol<Model>::step_users(const BasicState<Model>&,
                                      const std::vector<typename Model::Load>&,
                                      const UserId*, std::size_t,
                                      MigrationBuffer&, const RoundRng&,
                                      Counters&) const {
  QOSLB_REQUIRE(false, "step_users() is not implemented by " + name());
}

template <typename Model>
void BasicProtocol<Model>::commit_round(BasicState<Model>& state,
                                        std::vector<MigrationBuffer>& shards,
                                        Counters& counters) {
  for (MigrationBuffer& shard : shards)
    apply_all(state, shard.requests, counters);
}

template class BasicProtocol<Instance>;
template class BasicProtocol<WeightedInstance>;

}  // namespace qoslb
