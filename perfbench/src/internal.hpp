#pragma once

// Workload definitions shared by the untraced runs (workloads.cpp) and the
// traced replay (replay.cpp).

#include <memory>
#include <stdexcept>
#include <string>

#include "core/engine.hpp"
#include "core/instance.hpp"
#include "core/open/open_system.hpp"
#include "core/protocols/registry.hpp"
#include "core/state.hpp"
#include "core/weighted/weighted_instance.hpp"
#include "core/weighted/weighted_protocols.hpp"
#include "core/weighted/weighted_state.hpp"
#include "perfbench.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"

namespace perfbench {

/// Instance i of a pass draws everything from this seed.
inline std::uint64_t instance_seed(std::uint64_t seed, std::size_t i) {
  return qoslb::derive_seed(seed, i);
}

/// A built instance, its start state (satisfaction tracking on) and the RNG
/// as set-up left it — Engine::run keys the round streams off it.
struct Prepared {
  std::unique_ptr<qoslb::Instance> instance;
  std::unique_ptr<qoslb::State> state;
  qoslb::Xoshiro256 rng;
};

struct PreparedWeighted {
  std::unique_ptr<qoslb::WeightedInstance> instance;
  std::unique_ptr<qoslb::WeightedState> state;
  qoslb::Xoshiro256 rng;
};

/// A workload on the sharded round engine (step_users protocols).
struct ShardedSpec {
  enum class Generator { kUniformFeasible, kClusteredBipartite };

  std::string name;
  std::size_t instances = 1;
  Generator generator = Generator::kUniformFeasible;
  std::size_t n = 0;
  std::size_t m = 0;
  double slack = 0.0;
  double heterogeneity = 1.0;  // uniform-feasible only
  std::size_t clusters = 1;    // clustered-bipartite only
  std::size_t extra = 0;       // clustered-bipartite only
  bool all_on_zero = false;    // start state: all on resource 0, else random
  std::string protocol;        // registry kind
  double lambda = 1.0;
  qoslb::EngineMode mode = qoslb::EngineMode::kDense;
  /// The protocol's commit merges the shard buffers and gates on resident
  /// minimum thresholds (admission), so those calls sit inside commit_round.
  bool admission_commit = false;
  std::uint64_t max_rounds = 100000;

  /// Builds instance, start state and index; with a tracer, records the
  /// three set-up layers as spans.
  Prepared prepare(std::uint64_t seed, Tracer* tracer) const;
  std::unique_ptr<qoslb::Protocol> make_protocol() const;
  qoslb::EngineConfig engine_config() const;
};

/// The legacy-loops workload: the three loops outside the sharded engine.
struct LegacySpec {
  std::size_t instances = 1;
  // seq-br (random order) on a random start.
  std::size_t seq_n = 0;
  std::size_t seq_m = 0;
  double seq_slack = 0.0;
  double seq_heterogeneity = 1.0;
  std::uint64_t seq_max_steps = 0;
  // WeightedUniformSampling on make_weighted_feasible, all on resource 0.
  std::size_t w_n = 0;
  std::size_t w_m = 0;
  double w_slack = 0.0;
  std::size_t w_classes = 1;
  double w_skew = 0.0;
  double w_lambda = 0.5;
  std::uint64_t w_max_rounds = 0;
  // The open system (admission gate, Poisson arrivals).
  qoslb::OpenSystemConfig open;

  std::uint64_t open_seed(std::uint64_t seed, std::size_t i) const {
    return qoslb::derive_seed(instance_seed(seed, i), 3);
  }

  Prepared prepare_seq(std::uint64_t seed, std::size_t i, Tracer* tracer) const;
  PreparedWeighted prepare_weighted(std::uint64_t seed, std::size_t i,
                                    Tracer* tracer) const;
  qoslb::EngineConfig seq_config() const;
  qoslb::EngineConfig weighted_config() const;
};

/// Output check of one final state (State or WeightedState): converged,
/// check_invariants() holds, and the protocol calls it stable. Returns ""
/// or why it failed.
template <typename ProtocolT, typename StateT>
std::string check_final(const ProtocolT& protocol, const StateT& state,
                        bool converged) {
  if (!converged) return "hit the round cap";
  try {
    state.check_invariants();
  } catch (const std::exception& e) {
    return std::string("invariant check failed: ") + e.what();
  }
  if (!protocol.is_stable(state)) return "final state is not stable";
  return "";
}

/// Piles every user it can onto user 0's resource, so the output check has
/// a wrong result to catch (--corrupt, self-test only).
void corrupt_state(qoslb::State& state);

std::uint64_t weighted_hash(const qoslb::WeightedState& state);
std::uint64_t open_hash(const qoslb::OpenSystemMetrics& metrics);
inline std::uint64_t combine(std::uint64_t h, std::uint64_t part) {
  return qoslb::mix64(h ^ part);
}

/// Traced replays (replay.cpp). `untraced` is the same pass run through
/// Engine::run, against which the replay is checked.
TracedPass replay_sharded(const ShardedSpec& spec, const RunOptions& options,
                          PassResult untraced);
TracedPass replay_legacy(const LegacySpec& spec, const RunOptions& options,
                         PassResult untraced);

}  // namespace perfbench
