#include "core/protocol.hpp"

#include <numeric>

#include "core/protocols/common.hpp"
#include "util/check.hpp"

namespace qoslb {

void Protocol::step(State& state, Xoshiro256& rng, Counters& counters) {
  QOSLB_REQUIRE(supports_step_users(),
                "protocol overrides neither step() nor step_users()");
  // Single-shard realization of the round: one draw of the caller's RNG
  // keys the round's per-user Philox substreams, so (protocol, rng state)
  // pins the realization exactly, and the outcome is bit-identical however
  // the user list is later split into shards.
  const std::vector<int> snapshot = state.loads();
  std::vector<UserId> users(state.num_users());
  std::iota(users.begin(), users.end(), UserId{0});
  std::vector<MigrationBuffer> shards(1);
  const RoundRng streams(rng(), 0);
  step_users(state, snapshot, users.data(), users.size(), shards[0], streams,
             counters);
  commit_round(state, shards, counters);
}

void Protocol::step_users(const State& state, const std::vector<int>&,
                          const UserId*, std::size_t, MigrationBuffer&,
                          const RoundRng&, Counters&) const {
  (void)state;
  QOSLB_REQUIRE(false, "step_users() is not implemented by " + name());
}

void Protocol::commit_round(State& state, std::vector<MigrationBuffer>& shards,
                            Counters& counters) {
  for (MigrationBuffer& shard : shards)
    apply_all(state, shard.requests, counters);
}

void Protocol::snapshot_write(std::ostream& out) const { (void)out; }

void Protocol::snapshot_read(std::istream& in) { (void)in; }

}  // namespace qoslb
