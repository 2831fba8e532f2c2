#pragma once

#include "core/protocol.hpp"
#include "net/graph.hpp"

namespace qoslb {

/// P5 — topology-restricted sampling: resources form a graph and a user can
/// only probe (and migrate to) neighbors of its current resource — the
/// distributed-network variant of the protocols (E8). Supports both the
/// optimistic (λ-damped) and the admission-gated commit rule.
///
/// The graph is held by reference and must outlive the protocol; its vertex
/// count must equal the instance's resource count.
class NeighborhoodSampling : public Protocol {
 public:
  enum class Commit { kOptimistic, kAdmission };

  static constexpr ProtocolTraits kTraits{
      .sharded = true, .active_set = true, .restricted = true};

  NeighborhoodSampling(const Graph& resource_graph, Commit commit,
                       double migrate_prob = 1.0, int probes_per_round = 1);

  std::string name() const override;

  void step_users(const State& state, const std::vector<int>& load_snapshot,
                  const UserId* users, std::size_t count, MigrationBuffer& out,
                  const RoundRng& rng, Counters& counters) const override;

  /// Optimistic commit applies every request; admission commit merges the
  /// shards and runs the per-resource grant scan.
  void commit_round(State& state, std::vector<MigrationBuffer>& shards,
                    Counters& counters) override;

  /// Stability is relative to the reachable neighborhood: an unsatisfied user
  /// with a satisfying deviation outside its neighborhood is *not* unstable.
  bool is_stable(const State& state) const override;

 private:
  const Graph* graph_;
  Commit commit_;
  double migrate_prob_;
  int probes_;
  /// Commit-phase merge scratch (admission variant), reused across rounds.
  std::vector<MigrationRequest> merge_scratch_;
};

}  // namespace qoslb
