#pragma once

#include "core/protocol.hpp"

namespace qoslb {

/// P6 — the classic distributed selfish load-balancing protocol (Berenbrink,
/// Friedetzky, Goldberg, Goldberg, Hu, Martin, SODA'06): every user — QoS
/// satisfied or not — samples one resource per round and migrates to it with
/// probability 1 − (ℓ_dst+1)/ℓ_src when that improves its quality
/// (normalized by capacity for related resources). This is the dynamic the
/// QoS protocols generalize; it balances loads but is oblivious to
/// per-user requirements, which is exactly what E4/E7 quantify.
class BerenbrinkBalancing : public Protocol {
 public:
  // Not active_set: every user — satisfied or not — probes and may move
  // each round, so the unsatisfied set is not the acting set.
  static constexpr ProtocolTraits kTraits{.sharded = true,
                                          .restricted = true};

  BerenbrinkBalancing() : Protocol(kTraits) {}

  std::string name() const override { return "berenbrink"; }

  void step_users(const State& state, const std::vector<int>& load_snapshot,
                  const UserId* users, std::size_t count, MigrationBuffer& out,
                  const RoundRng& rng, Counters& counters) const override;

  /// Stability = Nash of the balancing game: no user can strictly improve
  /// its quality by a unilateral move. For identical capacities this is
  /// max_load − min_load ≤ 1.
  bool is_stable(const State& state) const override;
};

}  // namespace qoslb
