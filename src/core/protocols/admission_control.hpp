#pragma once

#include "core/protocol.hpp"

namespace qoslb {

/// P4 — resource-gated admission: a two-phase round. Unsatisfied users probe
/// one random resource and send a MIGRATE request where the observed load
/// would satisfy them; each resource then *grants* the longest
/// threshold-descending prefix of its requesters that keeps everyone (the
/// admitted and the currently satisfied residents) satisfied, and rejects the
/// rest. Rounds therefore never decrease the satisfied count — migration is
/// conservative, which is what buys the geometric decay of the unsatisfied
/// population (E3) at the cost of REQUEST/GRANT/REJECT messages.
class AdmissionControl : public Protocol {
 public:
  static constexpr ProtocolTraits kTraits{
      .sharded = true, .active_set = true, .restricted = true};

  explicit AdmissionControl(int probes_per_round = 1);

  std::string name() const override;

  void step_users(const State& state, const std::vector<int>& load_snapshot,
                  const UserId* users, std::size_t count, MigrationBuffer& out,
                  const RoundRng& rng, Counters& counters) const override;

  /// The admission gate needs every requester of a resource at once, so the
  /// commit merges the shard buffers (shard order = ascending user id)
  /// before the per-resource grant scan.
  void commit_round(State& state, std::vector<MigrationBuffer>& shards,
                    Counters& counters) override;

 private:
  int probes_;
  /// Commit-phase merge scratch, capacity reused across rounds (commit is
  /// always sequential, so a member is race-free).
  std::vector<MigrationRequest> merge_scratch_;
};

}  // namespace qoslb
