#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <sstream>

#include "core/engine.hpp"
#include "core/weighted/weighted_generators.hpp"
#include "core/weighted/weighted_instance.hpp"
#include "core/weighted/weighted_protocols.hpp"
#include "core/weighted/weighted_state.hpp"
#include "rng/xoshiro256.hpp"

namespace qoslb {
namespace {

WeightedInstance small_instance() {
  // 3 users: weights 1, 2, 4; thresholds (capacity 10): q=2 -> 5, q=1 -> 10.
  return WeightedInstance({10.0, 10.0}, {2.0, 1.0, 2.0}, {1, 2, 4});
}

TEST(WeightedInstance, ThresholdInWeightUnits) {
  const WeightedInstance inst = small_instance();
  EXPECT_EQ(inst.threshold(0, 0), 5);
  EXPECT_EQ(inst.threshold(1, 0), 7);  // 10 clamped to total weight 7
  EXPECT_EQ(inst.threshold(2, 1), 5);
  EXPECT_EQ(inst.total_weight(), 7u);
}

TEST(WeightedInstance, RejectsBadInput) {
  EXPECT_THROW(WeightedInstance({1.0}, {1.0}, {0}), std::invalid_argument);
  EXPECT_THROW(WeightedInstance({1.0}, {1.0, 1.0}, {1}), std::invalid_argument);
  EXPECT_THROW(WeightedInstance({}, {1.0}, {1}), std::invalid_argument);
}

TEST(WeightedState, LoadsAreWeightSums) {
  const WeightedInstance inst = small_instance();
  const WeightedState state(inst, {0, 0, 1});
  EXPECT_EQ(state.load(0), 3);
  EXPECT_EQ(state.load(1), 4);
  state.check_invariants();
}

TEST(WeightedState, MoveTransfersWeight) {
  const WeightedInstance inst = small_instance();
  WeightedState state(inst, {0, 0, 1});
  state.move(1, 1);
  EXPECT_EQ(state.load(0), 1);
  EXPECT_EQ(state.load(1), 6);
  state.check_invariants();
}

TEST(WeightedState, SatisfactionUsesWeightLoad) {
  const WeightedInstance inst = small_instance();
  // All on resource 0: load 7. Thresholds 5, 7, 5 -> only user 1 satisfied.
  const WeightedState state = WeightedState::all_on(inst, 0);
  EXPECT_FALSE(state.satisfied(0));
  EXPECT_TRUE(state.satisfied(1));
  EXPECT_FALSE(state.satisfied(2));
  EXPECT_EQ(state.count_satisfied(), 1u);
  EXPECT_EQ(state.satisfied_weight(), 2u);
}

TEST(WeightedState, SatisfiedAfterMoveCountsOwnWeight) {
  const WeightedInstance inst = small_instance();
  const WeightedState state = WeightedState::all_on(inst, 0);
  // User 2 (weight 4, threshold 5) moving to empty resource 1: load 4 <= 5.
  EXPECT_TRUE(satisfied_after_move(state, 2, 1));
  // User 0 (weight 1) staying put: load stays 7 > 5.
  EXPECT_FALSE(satisfied_after_move(state, 0, 0));
}

TEST(WeightedEquilibrium, DetectsDeviationAndStuckness) {
  const WeightedInstance inst = small_instance();
  const WeightedState crowded = WeightedState::all_on(inst, 0);
  EXPECT_FALSE(is_satisfaction_equilibrium(crowded));  // r1 free
  // Balanced: users 0,2 (weight 5) on r0; user 1 (weight 2) on r1.
  const WeightedState balanced(inst, {0, 1, 0});
  EXPECT_TRUE(is_satisfaction_equilibrium(balanced));
  EXPECT_EQ(balanced.count_satisfied(), 3u);
}

TEST(WeightedGenerator, FeasibleByConstruction) {
  Xoshiro256 rng(5);
  const WeightedInstance inst = make_weighted_feasible(100, 8, 0.3, 4, 1.0, rng);
  EXPECT_EQ(inst.num_users(), 100u);
  // Weights are powers of two within the class range.
  for (UserId u = 0; u < 100; ++u) {
    const std::uint32_t w = inst.weight(u);
    EXPECT_TRUE(w == 1 || w == 2 || w == 4 || w == 8) << w;
  }
  // The LPT packing argument: thresholds are uniform and at least the
  // peak packed load, so a protocol must be able to satisfy everyone.
  WeightedState state = WeightedState::all_on(inst, 0);
  Xoshiro256 run_rng(7);
  WeightedAdmissionControl protocol;
  EngineConfig config;
  config.max_rounds = 100000;
  const EngineResult result = Engine(config).run(protocol, state, run_rng);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.all_satisfied);
}

class WeightedProtocolKind : public ::testing::TestWithParam<int> {};

TEST_P(WeightedProtocolKind, ConvergesOnFeasibleInstances) {
  Xoshiro256 rng(11);
  const WeightedInstance inst = make_weighted_feasible(200, 16, 0.4, 4, 1.0, rng);
  WeightedState state = WeightedState::random(inst, rng);
  std::unique_ptr<WeightedProtocol> protocol;
  switch (GetParam()) {
    case 0: protocol = std::make_unique<WeightedUniformSampling>(0.5); break;
    case 1: protocol = std::make_unique<WeightedAdmissionControl>(); break;
    default: protocol = std::make_unique<WeightedSequentialBestResponse>(); break;
  }
  EngineConfig config;
  config.max_rounds = 200000;
  const EngineResult result = Engine(config).run(*protocol, state, rng);
  EXPECT_TRUE(result.converged) << protocol->name();
  EXPECT_TRUE(result.all_satisfied) << protocol->name();
  state.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(Kinds, WeightedProtocolKind, ::testing::Values(0, 1, 2));

TEST(WeightedAdmission, SatisfiedCountNeverDecreases) {
  Xoshiro256 rng(13);
  const WeightedInstance inst = make_weighted_feasible(150, 10, 0.2, 5, 1.2, rng);
  WeightedState state = WeightedState::random(inst, rng);
  WeightedAdmissionControl protocol;
  Counters counters;
  std::size_t satisfied = state.count_satisfied();
  for (int round = 0; round < 150; ++round) {
    protocol.step(state, rng, counters);
    const std::size_t now = state.count_satisfied();
    ASSERT_GE(now, satisfied) << "round " << round;
    satisfied = now;
  }
}

TEST(WeightedAdmission, AccountingConsistent) {
  Xoshiro256 rng(17);
  const WeightedInstance inst = make_weighted_feasible(100, 8, 0.3, 4, 1.0, rng);
  WeightedState state = WeightedState::all_on(inst, 0);
  WeightedAdmissionControl protocol;
  Counters counters;
  for (int round = 0; round < 50; ++round) protocol.step(state, rng, counters);
  EXPECT_EQ(counters.grants + counters.rejects, counters.migrate_requests);
  EXPECT_EQ(counters.grants, counters.migrations);
}

TEST(WeightedRunner, AlreadyStableIsZeroRounds) {
  const WeightedInstance inst = small_instance();
  WeightedState state(inst, {0, 1, 0});
  Xoshiro256 rng(1);
  WeightedAdmissionControl protocol;
  const EngineResult result = Engine().run(protocol, state, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.rounds, 0u);
  EXPECT_EQ(result.final_satisfied_weight, inst.total_weight());
}

TEST(WeightedRunner, MaxRoundsCap) {
  // Infeasible: two weight-4 users, thresholds 5, one resource pair where
  // only one can be alone... all on one resource of capacity 5.
  const WeightedInstance inst({5.0}, {1.0, 1.0}, {4, 4});
  WeightedState state = WeightedState::all_on(inst, 0);
  Xoshiro256 rng(3);
  WeightedUniformSampling protocol(0.5);
  EngineConfig config;
  config.max_rounds = 10;
  const EngineResult result = Engine(config).run(protocol, state, rng);
  // Single resource: nobody can deviate, so the state is stuck-stable.
  EXPECT_TRUE(result.converged);
  EXPECT_FALSE(result.all_satisfied);
}

// A weighted protocol steps on the caller's RNG, so the round loop rejects
// what it could not carry out instead of ignoring it — with seq-br's check.
TEST(WeightedRunner, RejectsAChurnPlan) {
  Xoshiro256 rng(3);
  const WeightedInstance inst = make_weighted_feasible(100, 8, 0.3, 4, 1.0, rng);
  WeightedState state = WeightedState::all_on(inst, 0);
  WeightedUniformSampling protocol(0.5);
  EngineConfig config;
  config.churn.fail(2, 3);
  try {
    Engine(config).run(protocol, state, rng);
    ADD_FAILURE() << "a churn plan was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "churn plans need a sharded (step_users) protocol"),
              std::string::npos)
        << e.what();
  }
}

TEST(WeightedRunner, RejectsSnapshotRounds) {
  Xoshiro256 rng(3);
  const WeightedInstance inst = make_weighted_feasible(100, 8, 0.3, 4, 1.0, rng);
  WeightedState state = WeightedState::all_on(inst, 0);
  WeightedUniformSampling protocol(0.5);
  int snapshots = 0;
  EngineConfig config;
  config.snapshot_rounds = {1};
  config.snapshot_sink = [&snapshots](const SnapshotV1&) { ++snapshots; };
  EXPECT_THROW(Engine(config).run(protocol, state, rng), std::invalid_argument);
  EXPECT_EQ(snapshots, 0);
}

/// Kills resource 0 under its residents, a state check_invariants()
/// rejects, and moves nobody.
class KillsResourceUnderResidents : public WeightedProtocol {
 public:
  std::string name() const override { return "kill-under-residents"; }
  void step(WeightedState& state, Xoshiro256&, Counters&) override {
    if (state.resource_live(0)) state.set_resource_live(0, false);
  }
};

TEST(WeightedRunner, InvariantCheckPeriodAuditsTheState) {
  const WeightedInstance inst = small_instance();
  Xoshiro256 rng(1);
  KillsResourceUnderResidents protocol;
  EngineConfig config;
  config.max_rounds = 5;
  WeightedState unchecked = WeightedState::all_on(inst, 0);
  EXPECT_EQ(Engine(config).run(protocol, unchecked, rng).rounds, 5u);
  config.invariant_check_period = 1;
  WeightedState checked = WeightedState::all_on(inst, 0);
  EXPECT_THROW(Engine(config).run(protocol, checked, rng), std::logic_error);
}

TEST(WeightedFragmentation, HeavyUserBlockedByLightCrowd) {
  // One resource has room in total but the heavy user cannot fit: weights
  // fragment capacity. Resource capacity 6 (thresholds 6 for q=1): r1 holds
  // weight 3 of light users; heavy user weight 4 cannot join (3+4=7>6) even
  // though its own resource is overloaded.
  const WeightedInstance inst({6.0, 6.0}, {1.0, 1.0, 1.0, 1.0, 1.0},
                              {4, 4, 1, 1, 1});
  // r0: both heavies (load 8 > 6); r1: three lights (load 3).
  WeightedState state(inst, {0, 0, 1, 1, 1});
  EXPECT_FALSE(state.satisfied(0));
  EXPECT_FALSE(satisfied_after_move(state, 0, 1));
  EXPECT_TRUE(is_satisfaction_equilibrium(state));
}

/// Order-sensitive FNV-1a hash of the final assignment.
std::uint64_t assignment_hash(const WeightedState& state) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (UserId u = 0; u < state.num_users(); ++u) {
    h ^= state.resource_of(u);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The make_weighted_feasible instance with speeds, as examples/gpu_cluster
/// builds them: users of weight >= 4 run at 0.6 on the upper two thirds of
/// the resources, everything else at 1.0 (a positive rate matrix).
WeightedInstance with_speeds(const WeightedInstance& base) {
  std::vector<double> capacities;
  std::vector<double> requirements;
  std::vector<std::uint32_t> weights;
  const std::size_t m = base.num_resources();
  std::vector<double> rates(base.num_users() * m, 1.0);
  for (ResourceId r = 0; r < m; ++r) capacities.push_back(base.capacity(r));
  for (UserId u = 0; u < base.num_users(); ++u) {
    requirements.push_back(base.requirement(u));
    weights.push_back(base.weight(u));
    if (base.weight(u) >= 4)
      for (ResourceId r = static_cast<ResourceId>(m / 3); r < m; ++r)
        rates[u * m + r] = 0.6;
  }
  return WeightedInstance(std::move(capacities), std::move(requirements),
                          std::move(weights),
                          RateModel::matrix(base.num_users(), m,
                                            std::move(rates)));
}

// Pins every weighted protocol's realization: each run's final assignment
// hash, round count, convergence, satisfied weight and every counter.
TEST(WeightedDynamics, GoldenRealizations) {
  enum class Start { kAllOnZero, kRandom, kSpeeds };
  struct Golden {
    int protocol;  // 0 = w-uniform(0.5), 1 = w-uniform(1), 2 = w-admission,
                   // 3 = w-seq-br
    Start start;
    std::uint64_t hash;
    std::uint64_t rounds;
    bool converged;
    std::uint64_t satisfied_weight;
    std::array<std::uint64_t, 10> counters;  // Counters::for_each_field order
  };
  const Golden goldens[] = {
      {0, Start::kAllOnZero, 7388241998779794099u, 6, true, 635,
       {634, 0, 0, 0, 252, 6, 0, 0, 0, 0}},
      {1, Start::kAllOnZero, 445641920910966908u, 2, true, 635,
       {263, 0, 0, 0, 242, 2, 0, 0, 0, 0}},
      {2, Start::kAllOnZero, 10951875640517418232u, 1, true, 635,
       {240, 221, 217, 4, 217, 1, 0, 0, 0, 0}},
      {3, Start::kAllOnZero, 15597330543576129789u, 212, true, 635,
       {2544, 0, 0, 0, 212, 212, 0, 0, 0, 0}},
      {0, Start::kRandom, 1400828710833489379u, 2, true, 623,
       {144, 0, 0, 0, 35, 2, 0, 0, 0, 0}},
      {1, Start::kRandom, 8141080724211903623u, 6, true, 623,
       {446, 0, 0, 0, 267, 6, 0, 0, 0, 0}},
      {2, Start::kRandom, 12629132781543030962u, 1, true, 623,
       {119, 61, 50, 11, 50, 1, 0, 0, 0, 0}},
      {3, Start::kRandom, 5122903977020879979u, 10, true, 623,
       {120, 0, 0, 0, 10, 10, 0, 0, 0, 0}},
      {0, Start::kSpeeds, 17255599343437879287u, 16, true, 463,
       {1115, 0, 0, 0, 268, 16, 0, 0, 0, 0}},
      {1, Start::kSpeeds, 11643095608877284575u, 12, true, 427,
       {839, 0, 0, 0, 389, 12, 0, 0, 0, 0}},
      {2, Start::kSpeeds, 9201351371784985128u, 16, true, 523,
       {633, 282, 219, 63, 219, 16, 0, 0, 0, 0}},
      {3, Start::kSpeeds, 13543115213623445652u, 232, true, 383,
       {6072, 0, 0, 0, 230, 232, 0, 0, 0, 0}},
  };
  for (const Golden& g : goldens) {
    Xoshiro256 rng(41 + static_cast<std::uint64_t>(g.start));
    const WeightedInstance base =
        make_weighted_feasible(240, 12, 0.2, 4, 1.0, rng);
    const WeightedInstance instance =
        g.start == Start::kSpeeds ? with_speeds(base) : base;
    WeightedState state = g.start == Start::kRandom
                              ? WeightedState::random(instance, rng)
                              : WeightedState::all_on(instance, 0);
    std::unique_ptr<WeightedProtocol> protocol;
    switch (g.protocol) {
      case 0: protocol = std::make_unique<WeightedUniformSampling>(0.5); break;
      case 1: protocol = std::make_unique<WeightedUniformSampling>(1.0); break;
      case 2: protocol = std::make_unique<WeightedAdmissionControl>(); break;
      default: protocol = std::make_unique<WeightedSequentialBestResponse>();
    }
    EngineConfig config;
    config.max_rounds = 3000;
    const EngineResult result = Engine(config).run(*protocol, state, rng);
    std::array<std::uint64_t, 10> counters{};
    std::size_t i = 0;
    Counters::for_each_field(
        [&](const char*, std::uint64_t value) { counters[i++] = value; },
        result.counters);
    const bool match = assignment_hash(state) == g.hash &&
                       result.rounds == g.rounds &&
                       result.converged == g.converged &&
                       result.final_satisfied_weight == g.satisfied_weight &&
                       counters == g.counters;
    std::ostringstream actual;
    actual << "{" << g.protocol << ", Start::"
           << (g.start == Start::kAllOnZero ? "kAllOnZero"
               : g.start == Start::kRandom  ? "kRandom"
                                            : "kSpeeds")
           << ", " << assignment_hash(state) << "u, " << result.rounds << ", "
           << (result.converged ? "true" : "false") << ", "
           << result.final_satisfied_weight << ", {";
    for (std::size_t k = 0; k < counters.size(); ++k)
      actual << (k == 0 ? "" : ", ") << counters[k];
    actual << "}},";
    EXPECT_TRUE(match) << protocol->name() << " moved; now " << actual.str();
  }
}

}  // namespace
}  // namespace qoslb
