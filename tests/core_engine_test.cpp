// qoslb::Engine — the unified run facade (PR 2) and the active-set round
// engine (PR 3).
//
// Covers the contracts the engine stands on:
//   1. mode/thread invariance: dense and active-set modes and every tested
//      thread count all produce bit-identical assignments, trajectories,
//      and counters, because randomness is keyed by (seed, round, user) and
//      commits merge in shard order;
//   2. step_users splitting equivalence: slicing a round's user list into
//      shards that share one RoundRng is exactly the default step() — each
//      user's draws come from its own substream;
//   3. facade regressions: Engine::run_async_admission matches the PR 1
//      fault-tolerant DES results, the sharded decide fan-out visits every
//      user once per round and keys its substreams off one caller draw,
//      and protocols without step_users run their step() inline on the
//      same round loop — round cap, trajectory, invariant audits and the
//      step() dynamics goldens included;
//   4. the round loop itself, driven by a protocol without dynamics: it
//      stops at stability or the cap, runs zero rounds from a stable start,
//      reports every round to the trace sink, and asks is_stable() on the
//      stability_check_period schedule;
//   5. the (seed, round, user) substream golden values are frozen.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/dynamics/hybrid.hpp"
#include "core/dynamics/quality_game.hpp"
#include "core/snapshot.hpp"
#include "net/generators.hpp"
#include "obs/trace_sink.hpp"
#include "qoslb.hpp"

namespace qoslb {
namespace {

Instance test_instance(std::size_t n, std::size_t m, std::uint64_t seed = 1) {
  Xoshiro256 rng(seed);
  return make_uniform_feasible(n, m, 0.5, 1.5, rng);
}

std::vector<ResourceId> assignment_of(const State& state) {
  std::vector<ResourceId> assignment(state.num_users());
  for (UserId u = 0; u < state.num_users(); ++u)
    assignment[u] = state.resource_of(u);
  return assignment;
}

void expect_counters_eq(const Counters& a, const Counters& b) {
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.migrate_requests, b.migrate_requests);
  EXPECT_EQ(a.grants, b.grants);
  EXPECT_EQ(a.rejects, b.rejects);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.rounds, b.rounds);
}

// ---- 1. mode and thread-count invariance ----

struct ShardedCase {
  std::string kind;
  double lambda;
};

const std::vector<ShardedCase>& sharded_cases() {
  static const std::vector<ShardedCase> kCases = {
      {"uniform", 0.5},      {"adaptive", 1.0},      {"admission", 1.0},
      {"nbr-uniform", 0.5},  {"nbr-admission", 1.0}, {"berenbrink", 1.0}};
  return kCases;
}

std::string case_name(const ::testing::TestParamInfo<ShardedCase>& info) {
  std::string name = info.param.kind;
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

class ModeThreadInvariance : public ::testing::TestWithParam<ShardedCase> {};

TEST_P(ModeThreadInvariance, DenseActiveAndEveryThreadCountMatch) {
  const ShardedCase& param = GetParam();
  const Instance instance = test_instance(2000, 32);
  const Graph ring = make_ring(32);

  struct RunCase {
    EngineMode mode;
    std::size_t threads;
  };
  std::vector<RunCase> cases;
  cases.push_back({EngineMode::kDense, 1});  // reference
  for (const std::size_t threads : {2u, 4u, 8u})
    cases.push_back({EngineMode::kDense, threads});
  for (const std::size_t threads : {1u, 2u, 4u, 8u})
    cases.push_back({EngineMode::kActive, threads});

  std::vector<ResourceId> reference;
  EngineResult reference_result;
  bool have_reference = false;
  for (const RunCase& run : cases) {
    State state = State::all_on(instance, 0);
    ProtocolSpec spec;
    spec.kind = param.kind;
    spec.lambda = param.lambda;
    spec.graph = &ring;
    const auto protocol = make_protocol(spec);
    EngineConfig config;
    config.mode = run.mode;
    config.threads = run.threads;
    config.shard_size = 128;
    config.max_rounds = 400;
    config.record_trajectory = true;
    Xoshiro256 rng(77);
    const EngineResult result = Engine(config).run(*protocol, state, rng);
    state.check_invariants();  // incremental index == recompute

    if (!have_reference) {
      reference = assignment_of(state);
      reference_result = result;
      have_reference = true;
      continue;
    }
    const std::string label =
        (run.mode == EngineMode::kActive ? "active" : "dense") +
        std::string(" threads=") + std::to_string(run.threads);
    EXPECT_EQ(assignment_of(state), reference) << label;
    EXPECT_EQ(result.rounds, reference_result.rounds) << label;
    EXPECT_EQ(result.final_satisfied, reference_result.final_satisfied)
        << label;
    EXPECT_EQ(result.converged, reference_result.converged) << label;
    EXPECT_EQ(result.unsatisfied_trajectory,
              reference_result.unsatisfied_trajectory)
        << label;
    expect_counters_eq(result.counters, reference_result.counters);
  }
}

INSTANTIATE_TEST_SUITE_P(AllShardedProtocols, ModeThreadInvariance,
                         ::testing::ValuesIn(sharded_cases()), case_name);

class ThreadCount : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThreadCount, BitIdenticalToSerialReference) {
  // A shard size that divides neither n nor any tested thread count: the
  // last shard is short and the workers claim uneven shares, yet every
  // thread count reproduces the one-thread realization.
  const auto run = [](std::size_t threads, EngineResult& result) {
    Xoshiro256 gen_rng(42);
    const Instance instance = make_uniform_feasible(512, 32, 0.2, 1.3, gen_rng);
    State state = State::all_on(instance, 0);
    ProtocolSpec spec;
    spec.kind = "uniform";
    spec.lambda = 0.5;
    const auto protocol = make_protocol(spec);
    EngineConfig config;
    config.threads = threads;
    config.shard_size = 37;
    config.seed = 99;
    config.record_trajectory = true;
    Xoshiro256 rng(1);
    result = Engine(config).run(*protocol, state, rng);
    EXPECT_TRUE(result.converged) << "threads=" << threads;
    return assignment_of(state);
  };
  EngineResult serial, parallel;
  const std::vector<ResourceId> reference = run(1, serial);
  EXPECT_EQ(run(GetParam(), parallel), reference);
  EXPECT_EQ(parallel.threads_used, GetParam());
  EXPECT_EQ(parallel.rounds, serial.rounds);
  EXPECT_EQ(parallel.unsatisfied_trajectory, serial.unsatisfied_trajectory);
  expect_counters_eq(parallel.counters, serial.counters);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCount,
                         ::testing::Values(2u, 3u, 4u, 8u));

// ---- 2. step_users splitting is exactly step() ----

class StepUsersEquivalence : public ::testing::TestWithParam<ShardedCase> {};

TEST_P(StepUsersEquivalence, SplitUserListsMatchFullStep) {
  const ShardedCase& param = GetParam();
  const Instance instance = test_instance(600, 16, 3);
  const Graph ring = make_ring(16);
  ProtocolSpec spec;
  spec.kind = param.kind;
  spec.lambda = param.lambda;
  spec.graph = &ring;
  const auto whole = make_protocol(spec);
  const auto split = make_protocol(spec);
  ASSERT_TRUE(whole->supports_step_users());

  State state_whole = State::all_on(instance, 0);
  State state_split = State::all_on(instance, 0);
  Xoshiro256 rng_whole(11), rng_split(11);
  Counters counters_whole, counters_split;
  const UserId n = static_cast<UserId>(instance.num_users());
  const UserId cut = n / 3;

  std::vector<UserId> users(n);
  std::iota(users.begin(), users.end(), UserId{0});

  for (int round = 0; round < 12; ++round) {
    whole->step(state_whole, rng_whole, counters_whole);

    // Two shards of the user list under the same round key draw the exact
    // same per-user substreams as the full-range default step().
    const std::vector<int> snapshot = state_split.loads();
    std::vector<MigrationBuffer> shards(2);
    const RoundRng streams(rng_split(), 0);
    split->step_users(state_split, snapshot, users.data(), cut, shards[0],
                      streams, counters_split);
    split->step_users(state_split, snapshot, users.data() + cut, n - cut,
                      shards[1], streams, counters_split);
    split->commit_round(state_split, shards, counters_split);

    ASSERT_EQ(assignment_of(state_split), assignment_of(state_whole))
        << param.kind << " diverged at round " << round;
  }
  expect_counters_eq(counters_split, counters_whole);
}

INSTANTIATE_TEST_SUITE_P(AllShardedProtocols, StepUsersEquivalence,
                         ::testing::ValuesIn(sharded_cases()), case_name);

// ---- 3. facade regressions ----

/// Same fault cocktail as core_async_test's PR 1 golden scenario.
EngineConfig faulty_config(std::uint64_t seed) {
  EngineConfig config;
  config.seed = seed;
  config.random_start = false;
  config.faults.drop_all(0.10).dup_all(0.05).crash(/*agent=*/2, 5.0, 150.0);
  return config;
}

TEST(EngineAsync, MatchesFaultTolerantGoldenRun) {
  Xoshiro256 rng(1);
  const Instance instance = make_uniform_feasible(80, 8, 0.5, 1.0, rng);
  const EngineConfig config = faulty_config(7);
  const EngineResult engine_result = Engine(config).run_async_admission(instance);
  const AsyncRunResult direct = run_async_admission(instance, config);

  // PR 1 invariants: the loss-tolerant protocol drives the faulty run to
  // full satisfaction and quiesces.
  EXPECT_TRUE(engine_result.all_satisfied);
  EXPECT_TRUE(engine_result.converged);
  EXPECT_EQ(engine_result.termination, Termination::kQuiesced);
  EXPECT_EQ(engine_result.final_satisfied, 80u);
  EXPECT_GT(engine_result.faults.dropped, 0u);
  EXPECT_GT(engine_result.counters.retries, 0u);

  // And the facade is a faithful view of the DES run.
  EXPECT_EQ(engine_result.final_satisfied, direct.satisfied);
  EXPECT_EQ(engine_result.events, direct.events);
  EXPECT_DOUBLE_EQ(engine_result.virtual_time, direct.virtual_time);
  EXPECT_EQ(engine_result.counters.messages(), direct.counters.messages());
  EXPECT_EQ(engine_result.faults.dropped, direct.faults.dropped);
}

TEST(EngineSharded, FallsBackToSequentialWithoutStepUsers) {
  const Instance instance = test_instance(400, 16, 5);
  ProtocolSpec spec;
  spec.kind = "seq-br";  // no step_users implementation

  EngineConfig sharded;
  sharded.threads = 4;
  State state_sharded = State::all_on(instance, 0);
  Xoshiro256 rng_sharded(21);
  const auto p1 = make_protocol(spec);
  const EngineResult a = Engine(sharded).run(*p1, state_sharded, rng_sharded);
  EXPECT_EQ(a.threads_used, 1u);

  State state_seq = State::all_on(instance, 0);
  Xoshiro256 rng_seq(21);
  const auto p2 = make_protocol(spec);
  const EngineResult b = Engine(EngineConfig{}).run(*p2, state_seq, rng_seq);
  EXPECT_EQ(assignment_of(state_sharded), assignment_of(state_seq));
  EXPECT_EQ(a.rounds, b.rounds);
}

/// A step_users() protocol without dynamics: it counts how often each user
/// is decided for and how many shard buffers each commit receives, and is
/// stable after a fixed number of rounds.
class VisitCounter : public Protocol {
 public:
  VisitCounter(std::size_t users, std::uint64_t rounds,
               ProtocolTraits traits = {.sharded = true})
      : Protocol(traits), visits_(users), rounds_(rounds) {}
  std::string name() const override { return "visit-counter"; }
  void step_users(const State&, const std::vector<int>&, const UserId* users,
                  std::size_t count, MigrationBuffer&, const RoundRng&,
                  Counters& counters) const override {
    for (std::size_t i = 0; i < count; ++i)
      visits_[users[i]].fetch_add(1, std::memory_order_relaxed);
    counters.probes += count;
  }
  void commit_round(State&, std::vector<MigrationBuffer>& shards,
                    Counters&) override {
    shards_per_commit_.push_back(shards.size());
  }
  bool is_stable(const State&) const override {
    return shards_per_commit_.size() >= rounds_;
  }
  int visits(UserId u) const { return visits_[u].load(); }
  const std::vector<std::size_t>& shards_per_commit() const {
    return shards_per_commit_;
  }

 private:
  // Written by the const decide hook, once per visit, from every worker.
  mutable std::vector<std::atomic<int>> visits_;
  std::uint64_t rounds_;
  std::vector<std::size_t> shards_per_commit_;
};

TEST(EngineSharded, DecideVisitsEveryUserOncePerRound) {
  const Instance instance = test_instance(100, 4, 5);
  for (const std::size_t threads : {1u, 3u}) {
    State state = State::all_on(instance, 0);
    VisitCounter protocol(instance.num_users(), 6);
    EngineConfig config;
    config.threads = threads;
    config.shard_size = 7;
    config.stability_check_period = 1;
    Xoshiro256 rng(3);
    const EngineResult result = Engine(config).run(protocol, state, rng);
    const std::string label = "threads=" + std::to_string(threads);
    ASSERT_EQ(result.rounds, 6u) << label;
    for (UserId u = 0; u < instance.num_users(); ++u)
      EXPECT_EQ(protocol.visits(u), 6) << label << " user " << u;
    // 100 users in shards of 7: 15 shards, the last one holding 2 users.
    EXPECT_EQ(protocol.shards_per_commit(), std::vector<std::size_t>(6, 15u))
        << label;
    // Every shard's private tally reaches the run's counters.
    EXPECT_EQ(result.counters.probes, 600u) << label;
  }
}

/// Everyone on resource 0 except users 0..29, spread over resources 1..3:
/// the crowd on resource 0 is unsatisfied, the spread users are not.
State crowded_start(const Instance& instance) {
  State state = State::all_on(instance, 0);
  for (UserId u = 0; u < 30; ++u) state.move(u, 1 + u % 3);
  return state;
}

/// Users of `state` that are satisfied (true) or not (false).
std::vector<UserId> users_by_satisfaction(const State& state, bool satisfied) {
  std::vector<UserId> users;
  for (UserId u = 0; u < state.num_users(); ++u)
    if (state.satisfied(u) == satisfied) users.push_back(u);
  return users;
}

TEST(EngineSharded, ActiveModeVisitsOnlyUnsatisfiedUsersWithTheActiveSetTrait) {
  // VisitCounter never moves anyone, so the unsatisfied set of the start
  // state is the iteration set of every round.
  const Instance instance = test_instance(100, 4, 5);
  State state = crowded_start(instance);
  const std::vector<UserId> satisfied = users_by_satisfaction(state, true);
  const std::vector<UserId> unsatisfied = users_by_satisfaction(state, false);
  ASSERT_FALSE(satisfied.empty());
  ASSERT_FALSE(unsatisfied.empty());
  VisitCounter protocol(instance.num_users(), 4,
                        {.sharded = true, .active_set = true});
  EngineConfig config;
  config.mode = EngineMode::kActive;
  config.stability_check_period = 1;
  Xoshiro256 rng(3);
  const EngineResult result = Engine(config).run(protocol, state, rng);
  ASSERT_EQ(result.rounds, 4u);
  for (const UserId u : unsatisfied) EXPECT_EQ(protocol.visits(u), 4) << u;
  for (const UserId u : satisfied) EXPECT_EQ(protocol.visits(u), 0) << u;
  EXPECT_EQ(result.counters.probes, 4 * unsatisfied.size());
}

TEST(EngineSharded, ActiveModeKeepsTheDenseScanWithoutTheActiveSetTrait) {
  // Same start as above, but the protocol does not declare active_set
  // (berenbrink's case): satisfied users are decided for every round too.
  const Instance instance = test_instance(100, 4, 5);
  State state = crowded_start(instance);
  ASSERT_FALSE(users_by_satisfaction(state, true).empty());
  VisitCounter protocol(instance.num_users(), 4, {.sharded = true});
  EngineConfig config;
  config.mode = EngineMode::kActive;
  config.stability_check_period = 1;
  Xoshiro256 rng(3);
  const EngineResult result = Engine(config).run(protocol, state, rng);
  ASSERT_EQ(result.rounds, 4u);
  for (UserId u = 0; u < instance.num_users(); ++u)
    EXPECT_EQ(protocol.visits(u), 4) << u;
  EXPECT_EQ(result.counters.probes, 400u);
}

// step_users() is a const member taking a const State: a decide hook that
// mutated the protocol or the state would not compile.
static_assert(
    std::is_same_v<decltype(&Protocol::step_users),
                   void (Protocol::*)(const State&, const std::vector<int>&,
                                      const UserId*, std::size_t,
                                      MigrationBuffer&, const RoundRng&,
                                      Counters&) const>);

/// Implements both round bodies and counts which one the engine drives;
/// the two runs below differ only in the traits it is built with.
class BodyProbe : public Protocol {
 public:
  BodyProbe(ProtocolTraits traits, std::uint64_t rounds)
      : Protocol(traits), rounds_(rounds) {}
  std::string name() const override { return "body-probe"; }
  void step(State&, Xoshiro256&, Counters&) override { ++steps_; }
  void step_users(const State&, const std::vector<int>&, const UserId*,
                  std::size_t count, MigrationBuffer&, const RoundRng&,
                  Counters&) const override {
    decided_.fetch_add(count, std::memory_order_relaxed);
  }
  void commit_round(State&, std::vector<MigrationBuffer>&,
                    Counters&) override {
    ++commits_;
  }
  bool is_stable(const State&) const override {
    return steps_ + commits_ >= rounds_;
  }
  std::uint64_t steps() const { return steps_; }
  std::uint64_t commits() const { return commits_; }
  std::size_t decided() const { return decided_.load(); }

 private:
  mutable std::atomic<std::size_t> decided_{0};
  std::uint64_t steps_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t rounds_;
};

TEST(EngineSharded, ShardedTraitChoosesTheRoundBody) {
  const Instance instance = test_instance(100, 4, 5);
  EngineConfig config;
  config.threads = 3;
  config.stability_check_period = 1;
  {
    State state = State::all_on(instance, 0);
    BodyProbe protocol({}, 5);
    Xoshiro256 rng(3);
    const EngineResult result = Engine(config).run(protocol, state, rng);
    EXPECT_EQ(result.rounds, 5u);
    EXPECT_EQ(protocol.steps(), 5u);
    EXPECT_EQ(protocol.commits(), 0u);
    EXPECT_EQ(protocol.decided(), 0u);
    // step() runs inline on the caller's thread, whatever config.threads.
    EXPECT_EQ(result.threads_used, 1u);
  }
  {
    State state = State::all_on(instance, 0);
    BodyProbe protocol({.sharded = true}, 5);
    Xoshiro256 rng(3);
    const EngineResult result = Engine(config).run(protocol, state, rng);
    EXPECT_EQ(result.rounds, 5u);
    EXPECT_EQ(protocol.steps(), 0u);
    EXPECT_EQ(protocol.commits(), 5u);
    EXPECT_EQ(protocol.decided(), 500u);
    EXPECT_EQ(result.threads_used, 3u);
  }
}

TEST(EngineSharded, ThreadsUsedCountsThePoolParticipants) {
  const Instance instance = test_instance(400, 16, 5);
  ProtocolSpec spec;
  spec.kind = "uniform";
  spec.lambda = 0.5;
  const auto threads_used = [&](std::size_t threads) {
    EngineConfig config;
    config.threads = threads;
    State state = State::all_on(instance, 0);
    Xoshiro256 rng(21);
    const auto protocol = make_protocol(spec);
    return Engine(config).run(*protocol, state, rng).threads_used;
  };
  EXPECT_EQ(threads_used(1), 1u);
  EXPECT_EQ(threads_used(3), 3u);
  // threads = 0 sizes the pool to the hardware.
  EXPECT_EQ(threads_used(0),
            std::max<std::size_t>(1, std::thread::hardware_concurrency()));
}

TEST(EngineSharded, DifferentSeedsDiverge) {
  const Instance instance = test_instance(400, 16, 5);
  const auto run = [&](std::uint64_t seed, std::uint64_t rng_seed) {
    ProtocolSpec spec;
    spec.kind = "uniform";
    spec.lambda = 0.5;
    const auto protocol = make_protocol(spec);
    EngineConfig config;
    config.seed = seed;
    config.threads = 2;
    State state = State::all_on(instance, 0);
    Xoshiro256 rng(rng_seed);
    Engine(config).run(*protocol, state, rng);
    return assignment_of(state);
  };
  const std::vector<ResourceId> base = run(1, 1);
  EXPECT_EQ(run(1, 1), base);
  // The master seed keys the substreams, and so does the caller draw that
  // is folded into it.
  EXPECT_NE(run(2, 1), base);
  EXPECT_NE(run(1, 2), base);
}

TEST(EngineSharded, TakesOneFoldDrawFromTheCallersRng) {
  const Instance instance = test_instance(400, 16, 5);
  ProtocolSpec spec;
  spec.kind = "uniform";
  spec.lambda = 0.5;
  const auto protocol = make_protocol(spec);
  State state = State::all_on(instance, 0);
  Xoshiro256 rng(21);
  const EngineResult result = Engine(EngineConfig{}).run(*protocol, state, rng);
  ASSERT_GT(result.rounds, 1u);
  // However many rounds ran, the caller's RNG advanced by exactly one draw.
  Xoshiro256 expected(21);
  expected();
  EXPECT_EQ(rng(), expected());
}

TEST(EngineSharded, RerunningAProtocolObjectRepeatsTheRun) {
  // run() resets the protocol's adaptive state and restarts the round keys
  // at round 0, so one object serves any number of identical replications.
  const Instance instance = test_instance(600, 16, 3);
  ProtocolSpec spec;
  spec.kind = "adaptive";
  spec.lambda = 1.0;
  const auto protocol = make_protocol(spec);
  EngineConfig config;
  config.threads = 2;
  config.record_trajectory = true;
  const auto run = [&](EngineResult& result) {
    State state = State::all_on(instance, 0);
    Xoshiro256 rng(9);
    result = Engine(config).run(*protocol, state, rng);
    return assignment_of(state);
  };
  EngineResult first, second;
  EXPECT_EQ(run(first), run(second));
  EXPECT_EQ(first.rounds, second.rounds);
  EXPECT_EQ(first.unsatisfied_trajectory, second.unsatisfied_trajectory);
  expect_counters_eq(first.counters, second.counters);
}

TEST(EngineSharded, ConvergesAndSatisfiesAtFourThreads) {
  Xoshiro256 gen_rng(7);
  const Instance instance = make_uniform_feasible(1024, 64, 0.3, 1.0, gen_rng);
  State state = State::all_on(instance, 0);
  ProtocolSpec spec;
  spec.kind = "uniform";
  spec.lambda = 0.5;
  const auto protocol = make_protocol(spec);
  EngineConfig config;
  config.threads = 4;
  config.shard_size = 64;
  config.max_rounds = 50000;
  config.invariant_check_period = 16;
  Xoshiro256 rng(5);
  const EngineResult result = Engine(config).run(*protocol, state, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.all_satisfied);
  EXPECT_EQ(result.threads_used, 4u);
  state.check_invariants();
}

TEST(EngineTermination, RoundCapAndConvergedAreDistinguished) {
  const Instance instance = test_instance(400, 16, 5);

  // Neither a barely-damped uniform sampler nor one best-response move per
  // round can absorb the all-on-one pile within the cap, so the capped runs
  // must report kRoundCap after exactly max_rounds rounds, with one
  // trajectory entry each; uncapped, both the sharded and the step()
  // protocol converge.
  struct Case {
    const char* slow;
    double lambda;
    std::uint64_t cap;
    const char* fast;
  };
  for (const Case& c : {Case{"uniform", 0.1, 1, "admission"},
                        Case{"seq-br", 1.0, 5, "seq-br"}}) {
    ProtocolSpec slow;
    slow.kind = c.slow;
    slow.lambda = c.lambda;
    EngineConfig capped;
    capped.max_rounds = c.cap;
    capped.record_trajectory = true;
    State state = State::all_on(instance, 0);
    Xoshiro256 rng(3);
    const auto p1 = make_protocol(slow);
    const EngineResult capped_result = Engine(capped).run(*p1, state, rng);
    EXPECT_FALSE(capped_result.converged) << c.slow;
    EXPECT_EQ(capped_result.termination, Termination::kRoundCap) << c.slow;
    EXPECT_EQ(capped_result.rounds, c.cap) << c.slow;
    EXPECT_EQ(capped_result.counters.rounds, c.cap) << c.slow;
    EXPECT_EQ(capped_result.unsatisfied_trajectory.size(), c.cap) << c.slow;

    ProtocolSpec fast;
    fast.kind = c.fast;
    State state2 = State::all_on(instance, 0);
    Xoshiro256 rng2(3);
    const auto p2 = make_protocol(fast);
    const EngineResult full = Engine(EngineConfig{}).run(*p2, state2, rng2);
    EXPECT_TRUE(full.converged) << c.fast;
    EXPECT_EQ(full.termination, Termination::kConverged) << c.fast;
  }
}

/// A step() protocol whose first step kills a populated resource: a broken
/// state that only the engine's invariant audit notices.
class KillsAPopulatedResource : public Protocol {
 public:
  std::string name() const override { return "kills-a-populated-resource"; }
  void step(State& state, Xoshiro256&, Counters&) override {
    state.set_resource_live(state.resource_of(0), false);
  }
  bool is_stable(const State&) const override { return false; }
};

TEST(EngineStepPath, InvariantAuditRunsEveryPeriod) {
  const Instance instance = test_instance(40, 4, 5);
  EngineConfig config;
  config.max_rounds = 1;
  {
    State state = State::all_on(instance, 0);
    KillsAPopulatedResource protocol;
    Xoshiro256 rng(3);
    const EngineResult result = Engine(config).run(protocol, state, rng);
    EXPECT_EQ(result.termination, Termination::kRoundCap);
  }
  config.invariant_check_period = 1;
  State state = State::all_on(instance, 0);
  KillsAPopulatedResource protocol;
  Xoshiro256 rng(3);
  try {
    Engine(config).run(protocol, state, rng);
    ADD_FAILURE() << "the audit did not run after the step";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("dead resource"), std::string::npos)
        << e.what();
  }
}

TEST(EngineStepPath, DrawsOnlyFromTheCallersRng) {
  // A step() protocol's run is the caller's own loop of step() calls on the
  // caller's RNG: no fold draw, no extra draws, so the RNG ends exactly
  // where the hand-written loop leaves it.
  const Instance instance = test_instance(400, 16, 5);
  ProtocolSpec spec;
  spec.kind = "seq-br";
  EngineConfig config;
  config.stability_check_period = 1;
  State engine_state = State::all_on(instance, 0);
  Xoshiro256 engine_rng(21);
  const auto p1 = make_protocol(spec);
  const EngineResult result = Engine(config).run(*p1, engine_state, engine_rng);
  ASSERT_TRUE(result.converged);

  State loop_state = State::all_on(instance, 0);
  loop_state.enable_satisfaction_tracking();
  Xoshiro256 loop_rng(21);
  const auto p2 = make_protocol(spec);
  Counters counters;
  std::uint64_t rounds = 0;
  while (!p2->is_stable(loop_state)) {
    p2->step(loop_state, loop_rng, counters);
    ++rounds;
  }
  EXPECT_EQ(assignment_of(engine_state), assignment_of(loop_state));
  EXPECT_EQ(result.rounds, rounds);
  EXPECT_EQ(result.counters.messages(), counters.messages());
  EXPECT_EQ(engine_rng(), loop_rng());
}

// ---- the round loop ----

/// A step() protocol without dynamics: stable once it has stepped `steps`
/// times. It records the round count each step ran at.
class Countdown : public Protocol {
 public:
  explicit Countdown(std::size_t steps) : steps_(steps) {}
  std::string name() const override { return "countdown"; }
  void step(State&, Xoshiro256&, Counters& counters) override {
    stepped_at_.push_back(counters.rounds);
  }
  bool is_stable(const State&) const override {
    return stepped_at_.size() >= steps_;
  }
  void reset() override { stepped_at_.clear(); }
  const std::vector<std::uint64_t>& stepped_at() const { return stepped_at_; }

 private:
  std::size_t steps_;
  std::vector<std::uint64_t> stepped_at_;
};

TEST(RoundEngine, RunsUntilConverged) {
  const Instance instance = test_instance(40, 4, 5);
  State state = State::all_on(instance, 0);
  Countdown protocol(5);
  EngineConfig config;
  config.stability_check_period = 1;
  Xoshiro256 rng(3);
  const EngineResult result = Engine(config).run(protocol, state, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.termination, Termination::kConverged);
  EXPECT_EQ(result.rounds, 5u);
  EXPECT_EQ(result.counters.rounds, 5u);
  EXPECT_EQ(protocol.stepped_at(),
            (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(RoundEngine, RespectsMaxRounds) {
  const Instance instance = test_instance(40, 4, 5);
  State state = State::all_on(instance, 0);
  Countdown protocol(10);
  EngineConfig config;
  config.max_rounds = 3;
  Xoshiro256 rng(3);
  const EngineResult result = Engine(config).run(protocol, state, rng);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.termination, Termination::kRoundCap);
  EXPECT_EQ(result.rounds, 3u);
  EXPECT_EQ(protocol.stepped_at().size(), 3u);
}

TEST(RoundEngine, AlreadyConvergedRunsZeroRounds) {
  const Instance instance = test_instance(40, 4, 5);
  State state = State::all_on(instance, 0);
  Countdown protocol(0);
  EngineConfig config;
  config.record_trajectory = true;
  Xoshiro256 rng(3);
  const EngineResult result = Engine(config).run(protocol, state, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.termination, Termination::kConverged);
  EXPECT_EQ(result.rounds, 0u);
  EXPECT_TRUE(protocol.stepped_at().empty());
  EXPECT_TRUE(result.unsatisfied_trajectory.empty());
}

TEST(RoundEngine, ObserverSeesEveryRound) {
  const Instance instance = test_instance(40, 4, 5);
  State state = State::all_on(instance, 0);
  Countdown protocol(4);
  obs::MemoryTraceSink sink;
  EngineConfig config;
  config.stability_check_period = 1;
  config.record_trajectory = true;
  config.telemetry.sink = &sink;
  Xoshiro256 rng(3);
  const EngineResult result = Engine(config).run(protocol, state, rng);
  ASSERT_EQ(result.rounds, 4u);
  // The round-0 snapshot plus one row per executed round, each agreeing
  // with the trajectory entry of that round.
  ASSERT_EQ(sink.rows().size(), 5u);
  ASSERT_EQ(result.unsatisfied_trajectory.size(), 4u);
  for (std::uint64_t r = 0; r < sink.rows().size(); ++r) {
    EXPECT_EQ(sink.rows()[r].round, r);
    if (r > 0) {
      EXPECT_EQ(sink.rows()[r].unsatisfied,
                result.unsatisfied_trajectory[r - 1]);
    }
  }
}

TEST(RoundEngine, StabilityCheckRunsEveryPeriod) {
  const Instance instance = test_instance(40, 4, 5);
  EngineConfig config;
  config.stability_check_period = 4;

  // Users left unsatisfied: is_stable() is asked only at rounds 0, 4, 8, so
  // a protocol that turns stable after 5 steps runs until round 8.
  State unsatisfied = State::all_on(instance, 0);
  ASSERT_LT(unsatisfied.count_satisfied(), instance.num_users());
  Countdown slow(5);
  Xoshiro256 rng(3);
  EXPECT_EQ(Engine(config).run(slow, unsatisfied, rng).rounds, 8u);

  // Everyone satisfied: the fast path asks after every round.
  State satisfied = State::all_on(instance, 0);
  ProtocolSpec spec;
  spec.kind = "admission";
  const auto admission = make_protocol(spec);
  ASSERT_TRUE(Engine(config).run(*admission, satisfied, rng).all_satisfied);
  Countdown fast(5);
  EXPECT_EQ(Engine(config).run(fast, satisfied, rng).rounds, 5u);
}

// ---- step() dynamics goldens ----

// The quality and hybrid dynamics draw from the caller's Xoshiro256 inside
// step(); these values were captured before the round loops were unified
// and pin that the engine drives them exactly as before.
TEST(StepDynamics, GoldenRealizations) {
  struct Golden {
    std::unique_ptr<Protocol> protocol;
    std::uint64_t hash;
    std::uint64_t rounds;
    std::uint64_t messages;
  };
  const Golden goldens[] = {
      {std::make_unique<QualityBestResponse>(), 0x121f7e080f5cec5cULL, 47,
       7055},
      {std::make_unique<QualityBestResponse>(
           QualityBestResponse::Order::kRoundRobin),
       0xa926e38da3875b38ULL, 44, 7148},
      {std::make_unique<QualitySampling>(), 0x4c3c4583d449e1ccULL, 15, 18067},
      {std::make_unique<HybridEpsilonGreedy>(0.5, 0.0), 0x0d6acb115d262f93ULL,
       2, 48},
      {std::make_unique<HybridEpsilonGreedy>(0.5, 0.2), 0x82366e13f8cb640bULL,
       254, 60836},
  };
  for (const Golden& golden : goldens) {
    Xoshiro256 gen_rng(42);
    const Instance instance = make_uniform_feasible(600, 24, 0.1, 1.5, gen_rng);
    State state = State::random(instance, gen_rng);
    EngineConfig config;
    config.max_rounds = 50000;
    config.seed = 7;
    Xoshiro256 run_rng(99);
    const EngineResult result =
        Engine(config).run(*golden.protocol, state, run_rng);
    const std::string label = golden.protocol->name();
    EXPECT_TRUE(result.converged) << label;
    EXPECT_EQ(state_hash(state), golden.hash) << label;
    EXPECT_EQ(result.rounds, golden.rounds) << label;
    EXPECT_EQ(result.counters.messages(), golden.messages) << label;
  }
}

// ---- registry surface ----

TEST(Registry, EveryKindHasInfoAndBuilds) {
  const auto& infos = protocol_registry();
  const auto kinds = protocol_kinds();
  ASSERT_EQ(infos.size(), kinds.size());
  const Graph ring = make_ring(8);
  for (std::size_t i = 0; i < infos.size(); ++i) {
    EXPECT_EQ(infos[i].name, kinds[i]);
    EXPECT_FALSE(infos[i].description.empty()) << infos[i].name;
    ProtocolSpec spec;
    spec.kind = infos[i].name;
    spec.graph = &ring;
    EXPECT_NE(make_protocol(spec), nullptr) << infos[i].name;
  }
}

TEST(Registry, AllThreeTraitsMatchTheBuiltProtocols) {
  // A class that declares kTraits but forgets to hand them to the Protocol
  // constructor would list one capability and run with another.
  const Graph ring = make_ring(8);
  for (const ProtocolInfo& info : protocol_registry()) {
    ProtocolSpec spec;
    spec.kind = info.name;
    spec.graph = &ring;
    const auto protocol = make_protocol(spec);
    EXPECT_EQ(info.traits.sharded, protocol->supports_step_users())
        << info.name;
    EXPECT_EQ(info.traits.active_set, protocol->active_set_compatible())
        << info.name;
    EXPECT_EQ(info.traits.restricted,
              protocol->restricted_assignment_compatible())
        << info.name;
    // active_set implies the sharded hooks exist at all.
    if (info.traits.active_set) {
      EXPECT_TRUE(info.traits.sharded) << info.name;
    }
  }
}

TEST(Registry, NewKindsForwardTheirKnobs) {
  ProtocolSpec cached;
  cached.kind = "cached";
  cached.lambda = 0.5;
  cached.ttl = 3;
  EXPECT_EQ(make_protocol(cached)->name(), "cached(lambda=0.5,ttl=3)");
}

// ---- substream scheme ----

// Frozen golden values of the (seed, round, user) keying (PR 3 re-keying).
// If these change, every sharded/active trajectory in the repo changes:
// that is a breaking re-keying and needs a deliberate golden regeneration.
TEST(RoundRng, PerUserStreamGoldenValues) {
  const RoundRng streams(/*master_seed=*/42, /*round=*/0);
  EXPECT_EQ(streams.round_key(), UINT64_C(0xBDD732262FEB6E95));
  PhiloxEngine user7 = streams.user_stream(7);
  EXPECT_EQ(user7(), UINT64_C(0x4C925A257DB22086));
  EXPECT_EQ(user7(), UINT64_C(0x1B9A5AB6CF16A8C3));
  EXPECT_EQ(RoundRng(42, 1).user_stream(7)(), UINT64_C(0x44DBAEE9715E047F));
  EXPECT_EQ(RoundRng(42, 0).user_stream(8)(), UINT64_C(0x8D2E921EAA7768CF));
  EXPECT_EQ(RoundRng(43, 0).user_stream(7)(), UINT64_C(0x672524B1553B9689));
}

TEST(RoundRng, StreamsAreSeekableAndPrivate) {
  const RoundRng streams(7, 3);
  // Re-materializing a user's stream restarts it at position 0: the draw
  // sequence is a pure function of (seed, round, user).
  PhiloxEngine a = streams.user_stream(123);
  const std::uint64_t first = a();
  const std::uint64_t second = a();
  PhiloxEngine b = streams.user_stream(123);
  EXPECT_EQ(b(), first);
  EXPECT_EQ(b(), second);
  // Distinct users draw from decorrelated streams.
  EXPECT_NE(streams.user_stream(124)(), first);
}

TEST(RoundRng, RoundKeysAreStableAndDistinct) {
  // Every (seed, round) pair keys a round of its own, and re-deriving a
  // pair gives the same key back.
  std::set<std::uint64_t> keys;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (std::uint64_t round = 0; round < 64; ++round) {
      const std::uint64_t key = RoundRng(seed, round).round_key();
      EXPECT_EQ(RoundRng(seed, round).round_key(), key);
      keys.insert(key);
    }
  }
  EXPECT_EQ(keys.size(), 8u * 64u);
}

}  // namespace
}  // namespace qoslb
