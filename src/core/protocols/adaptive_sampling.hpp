#pragma once

#include <vector>

#include "core/protocol.hpp"

namespace qoslb {

/// P3 — contention-adaptive sampling (Fischer–Räcke–Vöcking-style damping,
/// fully distributed): like UniformSampling, but a user that found a
/// satisfying resource `r` migrates with probability
///
///     p = min(1, slack / max(1, contention_r))
///
/// where `slack = threshold(u, r) − load(r)` is the room the user observes
/// and `contention_r` is the larger of the migration-intent counts resource
/// `r` observed in the previous *two* rounds — information a resource can
/// report in its LOAD reply without any global knowledge. The expected
/// inflow into a contended resource thus tracks its free capacity,
/// eliminating herding without a tuned global λ. The two-round maximum is
/// load-bearing: with a one-round memory a herd that alternates between two
/// resources always sees a zero estimate for its next target and never damps
/// (period-2 livelock on the E5 herding instance); the hysteresis keeps the
/// estimate hot across the alternation.
class AdaptiveSampling : public Protocol {
 public:
  static constexpr ProtocolTraits kTraits{
      .sharded = true, .active_set = true, .restricted = true};

  explicit AdaptiveSampling(int probes_per_round = 1);

  std::string name() const override;

  /// Tallies this shard's migration intents into out.resource_tallies (the
  /// contention estimate the *next* rounds damp against) while reading the
  /// previous rounds' estimates, which are frozen during the decide phase.
  void step_users(const State& state, const std::vector<int>& load_snapshot,
                  const UserId* users, std::size_t count, MigrationBuffer& out,
                  const RoundRng& rng, Counters& counters) const override;

  /// Sums the shard intent tallies into the two-round contention window,
  /// then applies all requests optimistically.
  void commit_round(State& state, std::vector<MigrationBuffer>& shards,
                    Counters& counters) override;

  void reset() override {
    last_intents_.clear();
    prev_intents_.clear();
  }

  /// The contention window is the protocol's only cross-round state; it must
  /// ride along in a checkpoint or a resumed run damps differently.
  void snapshot_write(std::ostream& out) const override;
  void snapshot_read(std::istream& in) override;

 private:
  // Construction constant, encoded in name() ("adaptive(k=N)"): restore
  // rebuilds it through the registry, not the snapshot payload.
  int probes_;  // qoslb-snapshot: transient
  std::vector<std::uint32_t> last_intents_;  // per-resource intents, round t-1
  std::vector<std::uint32_t> prev_intents_;  // per-resource intents, round t-2
};

}  // namespace qoslb
