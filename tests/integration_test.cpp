// Cross-module integration checks: protocols vs. the centralized optimum,
// synchronous vs. asynchronous realizations, and end-to-end determinism.

#include <gtest/gtest.h>

#include "core/async/async_protocols.hpp"
#include "core/generators.hpp"
#include "core/protocols/registry.hpp"
#include "core/engine.hpp"
#include "core/satisfaction.hpp"
#include "opt/satisfaction.hpp"

namespace qoslb {
namespace {

std::vector<int> thresholds_of(const Instance& inst) {
  std::vector<int> out(inst.num_users());
  for (UserId u = 0; u < inst.num_users(); ++u) out[u] = inst.threshold(u, 0);
  return out;
}

TEST(Integration, ProtocolsNeverBeatTheCentralizedOptimum) {
  // Property: on random small instances every protocol's final satisfied
  // count is bounded by the exact flow-based optimum, and the final state is
  // stable under the protocol's own notion.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Xoshiro256 rng(seed);
    const Instance inst = make_zipf(24, 3, 1.0, rng);
    const int opt = max_satisfied_identical(thresholds_of(inst), 3);
    for (const char* kind : {"uniform", "adaptive", "admission", "seq-br"}) {
      Xoshiro256 run_rng(seed * 100);
      State state = State::random(inst, run_rng);
      ProtocolSpec spec;
      spec.kind = kind;
      spec.lambda = 0.5;
      const auto protocol = make_protocol(spec);
      EngineConfig config;
      config.max_rounds = 20000;
      const EngineResult result = Engine(config).run(*protocol, state, run_rng);
      EXPECT_LE(static_cast<int>(result.final_satisfied), opt)
          << kind << " seed=" << seed;
      if (result.converged) {
        EXPECT_TRUE(protocol->is_stable(state)) << kind << " seed=" << seed;
      }
    }
  }
}

TEST(Integration, AdmissionReachesOptimumOnFeasibleInstances) {
  // On feasible instances the optimum is n and the admission protocol
  // reaches it.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Xoshiro256 rng(seed);
    const Instance inst = make_uniform_feasible(48, 6, 0.5, 1.3, rng);
    ASSERT_TRUE(all_satisfiable(thresholds_of(inst), 6));
    State state = State::random(inst, rng);
    ProtocolSpec spec;
    spec.kind = "admission";
    const auto protocol = make_protocol(spec);
    const EngineResult result = Engine().run(*protocol, state, rng);
    EXPECT_TRUE(result.all_satisfied) << "seed=" << seed;
  }
}

TEST(Integration, SyncAndAsyncAdmissionAgreeOnOutcome) {
  // Both realizations of P4 must fully satisfy the same feasible instances.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Xoshiro256 rng(seed);
    const Instance inst = make_uniform_feasible(60, 6, 0.4, 1.2, rng);

    State state = State::random(inst, rng);
    ProtocolSpec spec;
    spec.kind = "admission";
    const auto protocol = make_protocol(spec);
    const EngineResult sync = Engine().run(*protocol, state, rng);

    EngineConfig config;
    config.seed = seed;
    const AsyncRunResult async = run_async_admission(inst, config);

    EXPECT_TRUE(sync.all_satisfied) << "seed=" << seed;
    EXPECT_TRUE(async.all_satisfied) << "seed=" << seed;
  }
}

TEST(Integration, EquilibriumStatesSurviveFurtherRounds) {
  // Once converged, more protocol rounds change nothing that matters: the
  // satisfied count stays maximal for the reached equilibrium.
  Xoshiro256 rng(42);
  const Instance inst = make_uniform_feasible(64, 8, 0.5, 1.0, rng);
  State state = State::random(inst, rng);
  ProtocolSpec spec;
  spec.kind = "admission";
  const auto protocol = make_protocol(spec);
  const EngineResult first = Engine().run(*protocol, state, rng);
  ASSERT_TRUE(first.all_satisfied);
  Counters counters;
  for (int i = 0; i < 20; ++i) protocol->step(state, rng, counters);
  EXPECT_EQ(state.count_satisfied(), state.num_users());
  EXPECT_EQ(counters.migrations, 0u);
}

TEST(Integration, HeterogeneousCapacitiesEndToEnd) {
  Xoshiro256 rng(17);
  const Instance inst = make_related_capacities(80, 8, 0.3, 3, rng);
  State state = State::all_on(inst, 0);
  ProtocolSpec spec;
  spec.kind = "adaptive";
  const auto protocol = make_protocol(spec);
  EngineConfig config;
  config.max_rounds = 50000;
  const EngineResult result = Engine(config).run(*protocol, state, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.all_satisfied);
  state.check_invariants();
}

TEST(Integration, OverloadedInstanceSettlesNearCapacity) {
  // Overload factor 2: roughly half the users can be satisfied; the
  // admission protocol should reach a stable state filling most capacity.
  Xoshiro256 rng(23);
  const Instance inst = make_overloaded(64, 4, 2.0);  // thresholds 8
  // All users start on resource 0; the three other resources fill up to
  // their 8-user capacity, the remaining 40 users stay stuck on resource 0.
  State state = State::all_on(inst, 0);
  ProtocolSpec spec;
  spec.kind = "admission";
  const auto protocol = make_protocol(spec);
  EngineConfig config;
  config.max_rounds = 50000;
  const EngineResult result = Engine(config).run(*protocol, state, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_FALSE(result.all_satisfied);
  EXPECT_EQ(result.final_satisfied, 24u);
}

TEST(Integration, OverloadedBalancedStartIsADeadlockEquilibrium) {
  // A balanced random start on an overloaded instance is already a
  // satisfaction equilibrium with (near-)zero satisfied users — the extreme
  // price-of-anarchy case E7 quantifies: no single migration can help, so
  // every protocol stops immediately, sharded or step() alike.
  const Instance inst = make_overloaded(64, 4, 2.0);  // thresholds 8
  for (const char* kind : {"admission", "seq-br"}) {
    State state = State::round_robin(inst);  // 16 users everywhere
    Xoshiro256 rng(29);
    ProtocolSpec spec;
    spec.kind = kind;
    const auto protocol = make_protocol(spec);
    const EngineResult result = Engine().run(*protocol, state, rng);
    EXPECT_TRUE(result.converged) << kind;
    EXPECT_EQ(result.termination, Termination::kConverged) << kind;
    EXPECT_EQ(result.rounds, 0u) << kind;
    EXPECT_EQ(result.final_satisfied, 0u) << kind;
  }
}

}  // namespace
}  // namespace qoslb
