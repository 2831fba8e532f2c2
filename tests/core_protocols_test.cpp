#include <gtest/gtest.h>

#include <memory>

#include "core/generators.hpp"
#include "core/protocols/berenbrink.hpp"
#include "core/protocols/common.hpp"
#include "core/protocols/registry.hpp"
#include "core/protocols/sampling.hpp"
#include "core/protocols/sequential_best_response.hpp"
#include "core/engine.hpp"
#include "net/generators.hpp"

namespace qoslb {
namespace {

using Rule = SamplingProtocol::Rule;

/// Shared fixture pieces: a generously slack feasible instance where every
/// satisfaction protocol must reach full satisfaction.
struct Scenario {
  Scenario(std::size_t n, std::size_t m, double slack, std::uint64_t seed)
      : rng(seed), instance(make_uniform_feasible(n, m, slack, 1.5, rng)),
        state(State::random(instance, rng)) {}
  Xoshiro256 rng;
  Instance instance;
  State state;
};

// ---- cross-protocol convergence (parameterized over registry kinds) ----

class SatisfactionProtocol : public ::testing::TestWithParam<const char*> {};

TEST_P(SatisfactionProtocol, ConvergesToFullSatisfactionOnSlackInstance) {
  Scenario s(200, 10, 0.5, 1234);
  ProtocolSpec spec;
  spec.kind = GetParam();
  spec.lambda = 0.5;
  const auto protocol = make_protocol(spec);
  EngineConfig config;
  config.max_rounds = 200000;
  const EngineResult result = Engine(config).run(*protocol, s.state, s.rng);
  EXPECT_TRUE(result.converged) << protocol->name();
  EXPECT_TRUE(result.all_satisfied) << protocol->name();
  s.state.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(Kinds, SatisfactionProtocol,
                         ::testing::Values("seq-br", "seq-br-rr", "uniform",
                                           "adaptive", "admission"));

class SeededConvergence
    : public ::testing::TestWithParam<std::tuple<const char*, std::uint64_t>> {};

TEST_P(SeededConvergence, DeterministicGivenSeed) {
  const auto [kind, seed] = GetParam();
  ProtocolSpec spec;
  spec.kind = kind;
  spec.lambda = 0.5;

  auto run_once = [&] {
    Scenario s(100, 8, 0.5, seed);
    const auto protocol = make_protocol(spec);
    EngineConfig config;
    config.max_rounds = 100000;
    return Engine(config).run(*protocol, s.state, s.rng).rounds;
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSeeds, SeededConvergence,
    ::testing::Combine(::testing::Values("uniform", "adaptive", "admission"),
                       ::testing::Values(1ull, 2ull, 3ull)));

// ---- sequential best response ----

TEST(SequentialBestResponse, OneMovePerStep) {
  Scenario s(50, 5, 0.5, 7);
  SequentialBestResponse protocol;
  Counters counters;
  // From a random start at least one user is typically unsatisfied; a single
  // step may migrate at most one user.
  protocol.step(s.state, s.rng, counters);
  EXPECT_LE(counters.migrations, 1u);
}

TEST(SequentialBestResponse, NoOpOnceAllSatisfied) {
  const Instance inst = Instance::identical(2, 1.0, {0.5, 0.5});
  State state(inst, {0, 1});
  Xoshiro256 rng(1);
  SequentialBestResponse protocol;
  Counters counters;
  protocol.step(state, rng, counters);
  EXPECT_EQ(counters.migrations, 0u);
}

TEST(SequentialBestResponse, MovesToBestQualityTarget) {
  const Instance inst({1.0, 4.0, 1.0}, {0.9, 0.9, 0.9});
  State state(inst, {2, 2, 1});
  Xoshiro256 rng(1);
  SequentialBestResponse protocol;
  Counters counters;
  protocol.step(state, rng, counters);
  EXPECT_EQ(counters.migrations, 1u);
  // The mover must have chosen resource 1 (quality 2 beats quality 1).
  EXPECT_GE(state.load(1), 2);
}

// ---- uniform sampling ----

TEST(UniformSampling, RejectsBadParameters) {
  EXPECT_THROW(SamplingProtocol(Rule::kLambda, 0.0), std::invalid_argument);
  EXPECT_THROW(SamplingProtocol(Rule::kLambda, 1.5), std::invalid_argument);
  EXPECT_THROW(SamplingProtocol(Rule::kLambda, 0.5, 0), std::invalid_argument);
}

TEST(UniformSampling, SatisfiedUsersNeverMove) {
  const Instance inst = Instance::identical(2, 1.0, {0.5, 0.5});
  State state(inst, {0, 1});
  Xoshiro256 rng(1);
  SamplingProtocol protocol(Rule::kLambda, 1.0);
  Counters counters;
  for (int i = 0; i < 10; ++i) protocol.step(state, rng, counters);
  EXPECT_EQ(counters.migrations, 0u);
  EXPECT_EQ(counters.probes, 0u);
}

TEST(UniformSampling, UndampedFullScanOscillatesOnHerdingInstance) {
  // E5's anomaly: with λ=1 and enough probes to always spot the other
  // resource, the whole unsatisfied population stampedes back and forth.
  const Instance inst = make_herding(100);
  State state = State::all_on(inst, 0);
  Xoshiro256 rng(3);
  SamplingProtocol protocol(Rule::kLambda, 1.0, /*probes=*/8);
  EngineConfig config;
  config.max_rounds = 300;
  const EngineResult result = Engine(config).run(protocol, state, rng);
  EXPECT_FALSE(result.converged);
  EXPECT_GT(state.count_unsatisfied(), 20u);
}

TEST(UniformSampling, DampingTamesHerding) {
  const Instance inst = make_herding(100);
  State state = State::all_on(inst, 0);
  Xoshiro256 rng(3);
  SamplingProtocol protocol(Rule::kLambda, 0.3, /*probes=*/8);
  EngineConfig config;
  config.max_rounds = 10000;
  const EngineResult result = Engine(config).run(protocol, state, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.all_satisfied);
}

TEST(UniformSampling, NameEncodesParameters) {
  EXPECT_EQ(SamplingProtocol(Rule::kLambda, 0.5).name(), "uniform(lambda=0.5)");
  EXPECT_EQ(SamplingProtocol(Rule::kLambda, 1.0, 4).name(),
            "uniform(lambda=1,k=4)");
}

// ---- the sampling template (P2-P5 share SamplingProtocol) ----

TEST(SamplingProtocol, NamesEncodeKindLambdaAndProbes) {
  const Graph ring = make_ring(4);
  EXPECT_EQ(SamplingProtocol(Rule::kAdaptive).name(), "adaptive");
  EXPECT_EQ(SamplingProtocol(Rule::kAdaptive, 1.0, 2).name(), "adaptive(k=2)");
  EXPECT_EQ(SamplingProtocol(Rule::kAdmission).name(), "admission");
  EXPECT_EQ(SamplingProtocol(Rule::kAdmission, 1.0, 3).name(),
            "admission(k=3)");
  EXPECT_EQ(SamplingProtocol(Rule::kLambda, 0.5, 1, &ring).name(),
            "nbr-uniform(lambda=0.5)");
  EXPECT_EQ(SamplingProtocol(Rule::kLambda, 0.5, 3, &ring).name(),
            "nbr-uniform(lambda=0.5,k=3)");
  EXPECT_EQ(SamplingProtocol(Rule::kAdmission, 1.0, 1, &ring).name(),
            "nbr-admission");
  EXPECT_EQ(SamplingProtocol(Rule::kAdmission, 1.0, 3, &ring).name(),
            "nbr-admission(k=3)");
}

// The class builds only the registry's five kinds: adaptive has no graph
// variant, and only the lambda rule takes a migration probability.
TEST(SamplingProtocol, RefusesCombinationsTheRegistryDoesNotBuild) {
  const Graph ring = make_ring(4);
  EXPECT_THROW(SamplingProtocol(Rule::kAdaptive, 1.0, 1, &ring),
               std::invalid_argument);
  EXPECT_THROW(SamplingProtocol(Rule::kAdaptive, 0.5), std::invalid_argument);
  EXPECT_THROW(SamplingProtocol(Rule::kAdmission, 0.5), std::invalid_argument);
  EXPECT_THROW(SamplingProtocol(Rule::kAdmission, 1.0, 0, &ring),
               std::invalid_argument);
  // The registry hands λ to the lambda kinds only.
  ProtocolSpec spec;
  spec.lambda = 0.25;
  spec.graph = &ring;
  for (const char* kind : {"adaptive", "admission", "nbr-admission"}) {
    spec.kind = kind;
    EXPECT_NO_THROW(make_protocol(spec)) << kind;
  }
}

// ---- adaptive sampling ----

TEST(AdaptiveSampling, ConvergesOnHerdingWithoutTuning) {
  const Instance inst = make_herding(100);
  State state = State::all_on(inst, 0);
  Xoshiro256 rng(5);
  SamplingProtocol protocol(Rule::kAdaptive);
  EngineConfig config;
  config.max_rounds = 20000;
  const EngineResult result = Engine(config).run(protocol, state, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.all_satisfied);
}

TEST(AdaptiveSampling, ResetClearsContentionState) {
  Scenario s(60, 6, 0.5, 11);
  SamplingProtocol protocol(Rule::kAdaptive);
  Counters counters;
  protocol.step(s.state, s.rng, counters);
  protocol.reset();
  // After reset the protocol behaves identically on an identical scenario.
  Scenario s2(60, 6, 0.5, 11);
  SamplingProtocol fresh(Rule::kAdaptive);
  Counters counters2;
  Xoshiro256 rng_a(99), rng_b(99);
  protocol.step(s2.state, rng_a, counters2);
  Scenario s3(60, 6, 0.5, 11);
  Counters counters3;
  fresh.step(s3.state, rng_b, counters3);
  EXPECT_EQ(counters2.migrations, counters3.migrations);
}

// ---- admission control ----

TEST(AdmissionControl, SatisfiedCountNeverDecreases) {
  // The central monotonicity property of the gated protocol.
  Scenario s(120, 8, 0.3, 17);
  SamplingProtocol protocol(Rule::kAdmission);
  Counters counters;
  std::size_t satisfied = s.state.count_satisfied();
  for (int round = 0; round < 200; ++round) {
    protocol.step(s.state, s.rng, counters);
    const std::size_t now = s.state.count_satisfied();
    ASSERT_GE(now, satisfied) << "round " << round;
    satisfied = now;
  }
  s.state.check_invariants();
}

TEST(AdmissionControl, GrantsPlusRejectsEqualRequests) {
  Scenario s(80, 8, 0.4, 23);
  SamplingProtocol protocol(Rule::kAdmission);
  Counters counters;
  for (int round = 0; round < 50; ++round)
    protocol.step(s.state, s.rng, counters);
  EXPECT_EQ(counters.grants + counters.rejects, counters.migrate_requests);
  EXPECT_EQ(counters.grants, counters.migrations);
}

TEST(AdmissionControl, NeverOvershootsAdmittedThresholds) {
  // After every admission round, every user that was satisfied before the
  // round is still satisfied (spot-check of the gate).
  Scenario s(100, 5, 0.2, 29);
  SamplingProtocol protocol(Rule::kAdmission);
  Counters counters;
  for (int round = 0; round < 100; ++round) {
    std::vector<bool> was_satisfied(s.state.num_users());
    for (UserId u = 0; u < s.state.num_users(); ++u)
      was_satisfied[u] = s.state.satisfied(u);
    protocol.step(s.state, s.rng, counters);
    for (UserId u = 0; u < s.state.num_users(); ++u)
      if (was_satisfied[u]) {
        ASSERT_TRUE(s.state.satisfied(u)) << "u=" << u;
      }
  }
}

// ---- admission helper unit behaviour ----

TEST(ApplyWithAdmission, AdmitsThresholdDescendingPrefix) {
  // Resource 1 empty; requesters with thresholds 3, 2, 1: admitting all three
  // would put load 3 above the threshold-1 and threshold-2 users, so the
  // gate admits exactly the prefix {3, 2} (final load 2).
  const Instance inst = Instance::identical(2, 1.0, {1.0 / 3, 0.5, 1.0});
  State state(inst, {0, 0, 0});
  Counters counters;
  std::vector<MigrationRequest> requests = {{0, 1}, {1, 1}, {2, 1}};
  apply_with_admission(state, requests, counters);
  EXPECT_EQ(counters.grants, 2u);
  EXPECT_EQ(counters.rejects, 1u);
  EXPECT_EQ(state.load(1), 2);
  EXPECT_TRUE(state.satisfied(0));
  EXPECT_TRUE(state.satisfied(1));
  EXPECT_TRUE(state.satisfied(2));  // rejected but alone on resource 0 now
}

TEST(ApplyWithAdmission, SatisfiedResidentGatesAdmission) {
  // Resource 1 holds a satisfied resident with threshold 1: nobody may join.
  const Instance inst = Instance::identical(2, 1.0, {0.5, 1.0});
  State state(inst, {0, 1});
  Counters counters;
  std::vector<MigrationRequest> requests = {{0, 1}};
  apply_with_admission(state, requests, counters);
  EXPECT_EQ(counters.grants, 0u);
  EXPECT_EQ(counters.rejects, 1u);
  EXPECT_EQ(state.load(1), 1);
}

TEST(ApplyWithAdmission, UnsatisfiedResidentDoesNotGate) {
  // Resource 1 holds two users with threshold 1 (both unsatisfied). A
  // requester with a large threshold may still join.
  const Instance inst = Instance::identical(2, 1.0, {1.0, 1.0, 0.2});
  State state(inst, {1, 1, 0});
  Counters counters;
  std::vector<MigrationRequest> requests = {{2, 1}};
  apply_with_admission(state, requests, counters);
  EXPECT_EQ(counters.grants, 1u);
  EXPECT_EQ(state.load(1), 3);
}

TEST(ApplyWithAdmission, GrantsFollowTheTargetThreshold) {
  // Capacities 1, 2, 8. User 0 (q = 1) sits on resource 0 with threshold 1;
  // user 1 (q = 2) sits on resource 2 with threshold min(4, n) = 2. On the
  // target resource 1 the order flips: threshold 2 for user 0, 1 for user 1.
  // Only one of them fits, and it must be the one ranked by the target.
  const Instance inst({1.0, 2.0, 8.0}, {1.0, 2.0});
  State state(inst, {0, 2});
  ASSERT_LT(state.current_thresholds()[0], state.current_thresholds()[1]);
  ASSERT_GT(inst.threshold(0, 1), inst.threshold(1, 1));
  Counters counters;
  std::vector<MigrationRequest> requests = {{0, 1}, {1, 1}};
  apply_with_admission(state, requests, counters);
  EXPECT_EQ(counters.grants, 1u);
  EXPECT_EQ(counters.rejects, 1u);
  EXPECT_EQ(state.resource_of(0), 1u);
  EXPECT_EQ(state.resource_of(1), 2u);
}

TEST(ApplyWithAdmission, EqualThresholdsAdmitTheLowerUserId) {
  // Every threshold is 2. Resource 1 holds one satisfied resident, so only
  // one of the two requesters fits; the tie goes to the lower user id,
  // whatever the request order.
  const Instance inst = Instance::identical(2, 1.0, {0.5, 0.5, 0.5, 0.5});
  State state(inst, {0, 0, 0, 1});
  Counters counters;
  std::vector<MigrationRequest> requests = {{2, 1}, {1, 1}};
  apply_with_admission(state, requests, counters);
  EXPECT_EQ(counters.grants, 1u);
  EXPECT_EQ(counters.rejects, 1u);
  EXPECT_EQ(state.resource_of(1), 1u);
  EXPECT_EQ(state.resource_of(2), 0u);
  EXPECT_EQ(state.load(1), 2);
}

TEST(ApplyWithAdmission, GatesEachTargetOnItsOwn) {
  // Users 0-5 (threshold 4) crowd resource 0 and request three targets in
  // non-ascending order. Resource 1 is empty and takes both of its
  // requesters; resource 2 has a satisfied threshold-2 resident and takes
  // one; resource 3 has a satisfied threshold-1 resident and takes none.
  const Instance inst = Instance::identical(
      4, 1.0, {0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.5, 1.0});
  State state(inst, {0, 0, 0, 0, 0, 0, 2, 3});
  Counters counters;
  std::vector<MigrationRequest> requests = {{0, 3}, {1, 2}, {2, 1},
                                            {3, 3}, {4, 2}, {5, 1}};
  apply_with_admission(state, requests, counters);
  EXPECT_EQ(counters.migrate_requests, 6u);
  EXPECT_EQ(counters.grants, 3u);
  EXPECT_EQ(counters.rejects, 3u);
  EXPECT_EQ(counters.grants + counters.rejects, requests.size());
  EXPECT_EQ(state.assignment(),
            (std::vector<ResourceId>{0, 2, 1, 0, 0, 1, 2, 3}));
}

TEST(ApplyWithAdmission, ResidentMinimaAreTakenAtTheRoundBoundary) {
  // Users 0 and 1 (threshold 1) share resource 1, so neither is satisfied
  // and nothing gates resource 1. User 1 leaves for resource 0, which is
  // committed first; that satisfies user 0 mid-commit, but the gate still
  // uses the round-start minima, so user 2 (threshold min(4, n) = 3) joins.
  const Instance inst = Instance::identical(3, 1.0, {1.0, 1.0, 0.25});
  State state(inst, {1, 1, 2});
  Counters counters;
  std::vector<MigrationRequest> requests = {{1, 0}, {2, 1}};
  apply_with_admission(state, requests, counters);
  EXPECT_EQ(counters.grants, 2u);
  EXPECT_EQ(counters.rejects, 0u);
  EXPECT_EQ(state.assignment(), (std::vector<ResourceId>{1, 0, 1}));
}

// ---- neighborhood sampling ----

TEST(NeighborhoodSampling, ConvergesOnRing) {
  Xoshiro256 rng(31);
  const Instance inst = make_uniform_feasible(120, 12, 0.5, 1.0, rng);
  const Graph ring = make_ring(12);
  State state = State::random(inst, rng);
  SamplingProtocol protocol(Rule::kAdmission, 1.0, 1, &ring);
  EngineConfig config;
  config.max_rounds = 50000;
  const EngineResult result = Engine(config).run(protocol, state, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.all_satisfied);
}

TEST(NeighborhoodSampling, OnlyMovesAlongEdges) {
  Xoshiro256 rng(37);
  const Instance inst = make_uniform_feasible(40, 8, 0.5, 1.0, rng);
  const Graph ring = make_ring(8);
  State state = State::all_on(inst, 0);
  std::vector<ResourceId> before(40);
  for (UserId u = 0; u < 40; ++u) before[u] = state.resource_of(u);
  SamplingProtocol protocol(Rule::kLambda, 0.5, 1, &ring);
  Counters counters;
  protocol.step(state, rng, counters);
  for (UserId u = 0; u < 40; ++u) {
    const ResourceId now = state.resource_of(u);
    if (now != before[u]) {
      EXPECT_TRUE(ring.has_edge(before[u], now));
    }
  }
}

TEST(NeighborhoodSampling, StabilityIsNeighborhoodRelative) {
  // Users stuck on a vertex whose neighbors are full are stable even though a
  // two-hop resource is free.
  const Instance inst = Instance::identical(3, 1.0, {1.0, 1.0, 1.0});
  const Graph path = make_path(3);
  // Users 0,1 on vertex 0; user 2 on vertex 1 (full). Vertex 2 is free but
  // not adjacent to vertex 0.
  State state(inst, {0, 0, 1});
  SamplingProtocol protocol(Rule::kAdmission, 1.0, 1, &path);
  EXPECT_TRUE(protocol.is_stable(state));
  // The complete graph version is NOT stable (vertex 2 reachable).
  SamplingProtocol full(Rule::kAdmission);
  EXPECT_FALSE(full.is_stable(state));
}

TEST(NeighborhoodSampling, GraphSizeMismatchThrows) {
  Xoshiro256 rng(1);
  const Instance inst = make_uniform_feasible(10, 5, 0.5, 1.0, rng);
  const Graph ring = make_ring(4);
  State state = State::random(inst, rng);
  SamplingProtocol protocol(Rule::kLambda, 1.0, 1, &ring);
  Counters counters;
  EXPECT_THROW(protocol.step(state, rng, counters), std::invalid_argument);
}

// ---- Berenbrink balancing ----

TEST(Berenbrink, BalancesIdenticalResources) {
  Xoshiro256 rng(41);
  const Instance inst = Instance::identical(8, 1.0, std::vector<double>(256, 1e-3));
  State state = State::all_on(inst, 0);
  BerenbrinkBalancing protocol;
  EngineConfig config;
  config.max_rounds = 20000;
  const EngineResult result = Engine(config).run(protocol, state, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(state.max_load() - state.min_load(), 1);
}

TEST(Berenbrink, StabilityIsNashNotSatisfaction) {
  // Perfectly balanced but nobody satisfied: Nash-stable for balancing.
  const Instance inst = Instance::identical(2, 1.0, std::vector<double>(4, 1.0));
  const State state(inst, {0, 0, 1, 1});
  BerenbrinkBalancing protocol;
  EXPECT_TRUE(protocol.is_stable(state));
  EXPECT_EQ(state.count_satisfied(), 0u);
}

// ---- registry ----

TEST(Registry, BuildsEveryAdvertisedKind) {
  const Graph ring = make_ring(4);
  for (const std::string& kind : protocol_kinds()) {
    ProtocolSpec spec;
    spec.kind = kind;
    spec.graph = &ring;
    const auto protocol = make_protocol(spec);
    ASSERT_NE(protocol, nullptr) << kind;
    EXPECT_FALSE(protocol->name().empty());
  }
}

TEST(Registry, UnknownKindThrows) {
  ProtocolSpec spec;
  spec.kind = "nope";
  EXPECT_THROW(make_protocol(spec), std::invalid_argument);
}

TEST(Registry, NeighborhoodKindsRequireGraph) {
  ProtocolSpec spec;
  spec.kind = "nbr-uniform";
  EXPECT_THROW(make_protocol(spec), std::invalid_argument);
}

}  // namespace
}  // namespace qoslb
