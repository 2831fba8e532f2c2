#pragma once

#include <cstdint>
#include <vector>

#include "core/protocol.hpp"
#include "net/graph.hpp"

namespace qoslb {

/// P2–P5 — the paper's sampling template: in every round each unsatisfied
/// user probes `probes_per_round` (k) candidates, keeps the best one that
/// would satisfy it against the round-boundary loads (ranked by post-move
/// quality when k > 1), and requests a move there by its request rule. The
/// registry's five sampling kinds differ in three facts only:
///
///   kind            request rule   commit      candidates
///   uniform         kLambda        optimistic  reachable set
///   adaptive        kAdaptive      optimistic  reachable set
///   admission       kAdmission     admission   reachable set
///   nbr-uniform     kLambda        optimistic  graph neighbours
///   nbr-admission   kAdmission     admission   graph neighbours
///
/// The request rules:
///   * kLambda (P2) — a coin of probability λ (`migrate_prob`). λ = 1 is the
///     herding anomaly the paper's damping analysis targets: many users jump
///     onto the same almost-free resource and overshoot it, so the system
///     can oscillate (E5); λ < 1 thins the herd.
///   * kAdaptive (P3) — Fischer–Räcke–Vöcking-style damping, fully
///     distributed: a coin of p = min(1, slack / max(1, contention_r)), where
///     slack = threshold(u, r) − load(r) is the room the user observes and
///     contention_r is the larger of the migration-intent counts resource r
///     saw in the previous *two* rounds (information a resource can report
///     in its LOAD reply). The two-round maximum is load-bearing: with a
///     one-round memory a herd alternating between two resources always sees
///     a zero estimate for its next target and never damps (period-2
///     livelock on the E5 herding instance).
///   * kAdmission (P4) — always request: the coin is bernoulli(rng, 1),
///     which draws nothing. Each resource then grants the longest
///     threshold-descending prefix of its requesters that keeps everyone
///     (the admitted and the satisfied residents) satisfied and rejects the
///     rest (apply_with_admission), so rounds never decrease the satisfied
///     count (E3).
///
/// Without a graph a probe draws from the user's reachable set
/// (sample_reachable). With one (P5) it draws a neighbour of the user's
/// current resource, the distributed-network variant (E8); a dead or
/// unreachable neighbour is drawn but never targeted, and stability is
/// neighbourhood-relative. The graph is held by reference and must outlive
/// the protocol; its vertex count must equal the instance's resource count.
/// kAdaptive has no graph variant.
class SamplingProtocol : public Protocol {
 public:
  enum class Rule { kLambda, kAdaptive, kAdmission };

  static constexpr ProtocolTraits kTraits{
      .sharded = true, .active_set = true, .restricted = true};

  /// `migrate_prob` is kLambda's λ; the other rules take none (1).
  explicit SamplingProtocol(Rule rule, double migrate_prob = 1.0,
                            int probes_per_round = 1,
                            const Graph* graph = nullptr);

  /// The registry kind with its parameters: "uniform(lambda=0.5,k=3)",
  /// "adaptive", "nbr-admission(k=3)"; k is omitted when it is 1, and λ is
  /// printed exactly (format_exact), so a checkpoint resumes only under the
  /// λ it was taken at.
  std::string name() const override;

  /// Under kAdaptive, also tallies this shard's migration intents into
  /// out.resource_tallies while reading the previous rounds' estimates,
  /// which are frozen during the decide phase.
  void step_users(const State& state, const std::vector<int>& load_snapshot,
                  const UserId* users, std::size_t count, MigrationBuffer& out,
                  const RoundRng& rng, Counters& counters) const override;

  /// kAdmission merges the shard buffers (shard order = ascending user id)
  /// and runs the per-resource grant scan; the other rules apply every
  /// request, kAdaptive after summing the shard tallies into its
  /// contention window.
  void commit_round(State& state, std::vector<MigrationBuffer>& shards,
                    Counters& counters) override;

  /// On a graph, an unsatisfied user with a satisfying deviation outside
  /// its neighbourhood is *not* unstable.
  bool is_stable(const State& state) const override;

  void reset() override {
    last_intents_.clear();
    prev_intents_.clear();
  }

  /// kAdaptive's contention window is the only cross-round state; it must
  /// ride along in a checkpoint or a resumed run damps differently. The
  /// other rules write and read nothing.
  void snapshot_write(std::ostream& out) const override;
  void snapshot_read(std::istream& in) override;

 private:
  /// The decide body, one instantiation per candidate source, which
  /// step_users() picks once per call.
  template <typename Candidates>
  void decide_sampled(Candidates candidates, const State& state,
                      const std::vector<int>& snapshot, const UserId* users,
                      std::size_t count, MigrationBuffer& out,
                      const RoundRng& streams, Counters& counters) const;

  // Construction constants, encoded in name(): restore rebuilds them
  // through the registry, not the snapshot payload.
  Rule rule_;            // qoslb-snapshot: transient
  double migrate_prob_;  // qoslb-snapshot: transient
  int probes_;           // qoslb-snapshot: transient
  const Graph* graph_;   // qoslb-snapshot: transient
  std::vector<std::uint32_t> last_intents_;  // per-resource intents, round t-1
  std::vector<std::uint32_t> prev_intents_;  // per-resource intents, round t-2
  /// kAdmission's commit-phase merge scratch, capacity reused across rounds
  /// (commit is always sequential, so a member is race-free).
  std::vector<MigrationRequest> merge_scratch_;  // qoslb-snapshot: transient
};

}  // namespace qoslb
