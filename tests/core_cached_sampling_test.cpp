#include "core/protocols/cached_sampling.hpp"

#include <gtest/gtest.h>

#include "core/generators.hpp"
#include "core/protocols/sampling.hpp"
#include "core/engine.hpp"

namespace qoslb {
namespace {

TEST(CachedSampling, ConvergesLikeUniform) {
  Xoshiro256 rng(1);
  const Instance instance = make_uniform_feasible(256, 16, 0.3, 1.3, rng);
  State state = State::all_on(instance, 0);
  CachedSampling protocol(0.5, /*ttl=*/2);
  EngineConfig config;
  config.max_rounds = 50000;
  const EngineResult result = Engine(config).run(protocol, state, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.all_satisfied);
}

TEST(CachedSampling, SharedRoundCacheSavesProbes) {
  // On the same scenario, the ttl=0 cache (one probe per touched resource
  // per round) must spend strictly fewer probes than per-user probing.
  auto run_with = [](auto&& protocol) {
    Xoshiro256 rng(3);
    const Instance instance = make_uniform_feasible(512, 8, 0.2, 1.0, rng);
    State state = State::all_on(instance, 0);
    EngineConfig config;
    config.max_rounds = 50000;
    return Engine(config).run(protocol, state, rng).counters.probes;
  };
  SamplingProtocol uniform(SamplingProtocol::Rule::kLambda, 0.5);
  CachedSampling cached(0.5, 0);
  // Few resources, many users: sharing is dramatic.
  EXPECT_LT(run_with(cached), run_with(uniform) / 4);
}

TEST(CachedSampling, LargeTtlStillConvergesEventually) {
  Xoshiro256 rng(5);
  const Instance instance = make_uniform_feasible(256, 16, 0.3, 1.0, rng);
  State state = State::all_on(instance, 0);
  CachedSampling protocol(0.5, /*ttl=*/16);
  EngineConfig config;
  config.max_rounds = 100000;
  const EngineResult result = Engine(config).run(protocol, state, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.all_satisfied);
}

TEST(CachedSampling, StalenessSlowsConvergence) {
  auto rounds_with_ttl = [](std::uint32_t ttl) {
    double total = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      Xoshiro256 rng(seed);
      const Instance instance = make_uniform_feasible(1024, 64, 0.15, 1.0, rng);
      State state = State::all_on(instance, 0);
      CachedSampling protocol(0.5, ttl);
      EngineConfig config;
      config.max_rounds = 100000;
      total += static_cast<double>(Engine(config).run(protocol, state, rng).rounds);
    }
    return total / 5.0;
  };
  EXPECT_LT(rounds_with_ttl(0), rounds_with_ttl(16));
}

TEST(CachedSampling, ResetClearsTheCache) {
  Xoshiro256 rng(7);
  const Instance instance = make_uniform_feasible(64, 4, 0.3, 1.0, rng);
  CachedSampling protocol(0.5, 4);

  auto first_round_probes = [&] {
    State state = State::all_on(instance, 0);
    Xoshiro256 step_rng(11);
    Counters counters;
    protocol.reset();
    protocol.step(state, step_rng, counters);
    return counters.probes;
  };
  EXPECT_EQ(first_round_probes(), first_round_probes());
}

TEST(CachedSampling, NameAndParameters) {
  CachedSampling protocol(0.25, 3);
  EXPECT_EQ(protocol.name(), "cached(lambda=0.25,ttl=3)");
  EXPECT_EQ(protocol.ttl(), 3u);
  EXPECT_THROW(CachedSampling(0.0, 1), std::invalid_argument);
}

TEST(TwoChoices, BalancesBetterThanRandom) {
  Xoshiro256 rng(13);
  const Instance instance = make_uniform_feasible(4096, 256, 0.5, 1.0, rng);
  Xoshiro256 a(1), b(1);
  const State random_state = State::random(instance, a);
  const State two_choice_state = State::two_choices(instance, b);
  EXPECT_LT(two_choice_state.max_load(), random_state.max_load());
  two_choice_state.check_invariants();
}

TEST(TwoChoices, DeterministicPerSeed) {
  Xoshiro256 rng(17);
  const Instance instance = make_uniform_feasible(128, 8, 0.3, 1.0, rng);
  Xoshiro256 a(5), b(5);
  const State sa = State::two_choices(instance, a);
  const State sb = State::two_choices(instance, b);
  for (UserId u = 0; u < instance.num_users(); ++u)
    EXPECT_EQ(sa.resource_of(u), sb.resource_of(u));
}

}  // namespace
}  // namespace qoslb
