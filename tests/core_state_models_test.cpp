// The two instantiations of BasicState against each other: a WeightedInstance
// whose every weight is 1 is the unit model, so State and WeightedState over
// the same capacities and requirements (uniform rates) must agree on every
// threshold, load, satisfaction bit, deviation, admission grant and seq-br
// realization.

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "core/engine.hpp"
#include "core/protocols/common.hpp"
#include "core/protocols/sequential_best_response.hpp"
#include "core/satisfaction.hpp"
#include "core/weighted/weighted_protocols.hpp"
#include "rng/distributions.hpp"

namespace qoslb {
namespace {

constexpr std::size_t kUsers = 150;
constexpr std::size_t kResources = 10;

struct Pair {
  Instance unit;
  WeightedInstance weighted;
};

/// Capacities 40 everywhere (identical) or 20..56 (varied), requirements
/// uniform in [1, 3): thresholds between 6 and 56, so starts are congested
/// and the instances are feasible.
Pair make_models(bool identical, Xoshiro256& rng) {
  std::vector<double> capacities(kResources, 40.0);
  if (!identical)
    for (std::size_t r = 0; r < kResources; ++r)
      capacities[r] = 20.0 + 4.0 * static_cast<double>(r);
  std::vector<double> requirements(kUsers);
  for (double& q : requirements) q = uniform_real(rng, 1.0, 3.0);
  return Pair{Instance(capacities, requirements),
              WeightedInstance(capacities, requirements,
                               std::vector<std::uint32_t>(kUsers, 1))};
}

std::vector<ResourceId> random_assignment(Xoshiro256& rng) {
  std::vector<ResourceId> assignment(kUsers);
  for (ResourceId& r : assignment)
    r = static_cast<ResourceId>(uniform_u64_below(rng, kResources));
  return assignment;
}

void expect_agree(const State& unit, const WeightedState& weighted) {
  ASSERT_EQ(unit.assignment(), weighted.assignment());
  for (UserId u = 0; u < kUsers; ++u) {
    EXPECT_EQ(unit.current_thresholds()[u], weighted.current_thresholds()[u]);
    EXPECT_EQ(unit.satisfied(u), weighted.satisfied(u));
    EXPECT_EQ(best_satisfying_deviation(unit, u),
              best_satisfying_deviation(weighted, u))
        << "user " << u;
    for (ResourceId r = 0; r < kResources; ++r)
      EXPECT_EQ(unit.instance().threshold(u, r),
                weighted.instance().threshold(u, r));
  }
  for (ResourceId r = 0; r < kResources; ++r) {
    EXPECT_EQ(unit.load(r), weighted.load(r));
    EXPECT_EQ(unit.satisfied_resident_min(r), weighted.satisfied_resident_min(r));
  }
  EXPECT_EQ(unsatisfied_users(unit), unsatisfied_users(weighted));
  EXPECT_EQ(unit.count_satisfied(), weighted.count_satisfied());
  EXPECT_EQ(unit.satisfied_weight(), weighted.satisfied_weight());
  EXPECT_EQ(is_satisfaction_equilibrium(unit),
            is_satisfaction_equilibrium(weighted));
}

class StateModels : public ::testing::TestWithParam<bool> {};

TEST_P(StateModels, AgreeUnderTheSameMoves) {
  Xoshiro256 rng(GetParam() ? 3 : 4);
  const Pair pair = make_models(GetParam(), rng);
  const std::vector<ResourceId> start = random_assignment(rng);
  State unit(pair.unit, start);
  WeightedState weighted(pair.weighted, start);
  unit.enable_satisfaction_tracking();
  weighted.enable_satisfaction_tracking();
  expect_agree(unit, weighted);
  for (int step = 0; step < 40; ++step) {
    for (int i = 0; i < 10; ++i) {
      const auto u = static_cast<UserId>(uniform_u64_below(rng, kUsers));
      const auto r = static_cast<ResourceId>(uniform_u64_below(rng, kResources));
      unit.move(u, r);
      weighted.move(u, r);
    }
    expect_agree(unit, weighted);
  }
  unit.check_invariants();
  weighted.check_invariants();
}

TEST_P(StateModels, AdmissionGrantsTheSameRequests) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Xoshiro256 rng(seed + (GetParam() ? 100 : 200));
    const Pair pair = make_models(GetParam(), rng);
    const std::vector<ResourceId> start = random_assignment(rng);
    State unit(pair.unit, start);
    WeightedState weighted(pair.weighted, start);
    std::vector<MigrationRequest> requests;
    for (UserId u = 0; u < kUsers; ++u) {
      const auto r = static_cast<ResourceId>(uniform_u64_below(rng, kResources));
      if (r != start[u] && bernoulli(rng, 0.5))
        requests.push_back(MigrationRequest{u, r});
    }
    Counters unit_counters;
    Counters weighted_counters;
    apply_with_admission(unit, requests, unit_counters);
    apply_with_admission(weighted, requests, weighted_counters);
    EXPECT_GT(unit_counters.grants, 0u);
    EXPECT_GT(unit_counters.rejects, 0u);
    EXPECT_EQ(unit_counters.grants, weighted_counters.grants);
    EXPECT_EQ(unit_counters.rejects, weighted_counters.rejects);
    EXPECT_EQ(unit_counters.migrations, weighted_counters.migrations);
    expect_agree(unit, weighted);
  }
}

std::array<std::uint64_t, 10> fields(const Counters& counters) {
  std::array<std::uint64_t, 10> out{};
  std::size_t i = 0;
  Counters::for_each_field(
      [&](const char*, std::uint64_t value) { out[i++] = value; }, counters);
  return out;
}

TEST_P(StateModels, SeqBrRunsMatchWSeqBr) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Xoshiro256 setup(seed + (GetParam() ? 300 : 400));
    const Pair pair = make_models(GetParam(), setup);
    const std::vector<ResourceId> start = random_assignment(setup);
    State unit(pair.unit, start);
    WeightedState weighted(pair.weighted, start);
    SequentialBestResponse unit_protocol;
    WeightedSequentialBestResponse weighted_protocol;
    Xoshiro256 unit_rng(seed);
    Xoshiro256 weighted_rng(seed);
    const EngineResult a = Engine().run(unit_protocol, unit, unit_rng);
    const EngineResult b = Engine().run(weighted_protocol, weighted, weighted_rng);
    EXPECT_GT(a.rounds, 0u);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(fields(a.counters), fields(b.counters));
    EXPECT_EQ(unit_rng(), weighted_rng());
    expect_agree(unit, weighted);
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, StateModels, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "Identical" : "Varied";
                         });

}  // namespace
}  // namespace qoslb
