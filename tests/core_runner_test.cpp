// Engine-facade run semantics (termination, trajectories, per-round trace
// rows) and experiment aggregation. Historically this file tested the
// run_protocol/TraceRecorder shims; those are gone and the same contracts now
// hold directly on Engine + obs::MemoryTraceSink.

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/generators.hpp"
#include "core/protocols/sampling.hpp"
#include "obs/trace_sink.hpp"

namespace qoslb {
namespace {

TEST(Runner, AlreadyStableTakesZeroRounds) {
  const Instance inst = Instance::identical(2, 1.0, {0.5, 0.5});
  State state(inst, {0, 1});
  Xoshiro256 rng(1);
  SamplingProtocol protocol(SamplingProtocol::Rule::kAdmission);
  const EngineResult result = Engine().run(protocol, state, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.all_satisfied);
  EXPECT_EQ(result.rounds, 0u);
}

TEST(Runner, MaxRoundsCapsRun) {
  const Instance inst = make_herding(60);
  State state = State::all_on(inst, 0);
  Xoshiro256 rng(2);
  SamplingProtocol protocol(SamplingProtocol::Rule::kLambda, 1.0,
                            8);  // oscillates forever
  EngineConfig config;
  config.max_rounds = 25;
  const EngineResult result = Engine(config).run(protocol, state, rng);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.rounds, 25u);
  EXPECT_EQ(result.counters.rounds, 25u);
}

TEST(Runner, TrajectoryRecordsEveryRound) {
  Xoshiro256 rng(3);
  const Instance inst = make_uniform_feasible(60, 6, 0.5, 1.0, rng);
  State state = State::all_on(inst, 0);
  SamplingProtocol protocol(SamplingProtocol::Rule::kAdmission);
  EngineConfig config;
  config.record_trajectory = true;
  const EngineResult result = Engine(config).run(protocol, state, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.unsatisfied_trajectory.size(), result.rounds);
  if (!result.unsatisfied_trajectory.empty()) {
    EXPECT_EQ(result.unsatisfied_trajectory.back(), 0u);
  }
}

TEST(Runner, StuckEquilibriumReportedConvergedNotSatisfied) {
  // Infeasible: three threshold-1 users, two resources.
  const Instance inst = Instance::identical(2, 1.0, {1.0, 1.0, 1.0});
  State state(inst, {0, 0, 1});
  Xoshiro256 rng(4);
  SamplingProtocol protocol(SamplingProtocol::Rule::kAdmission);
  const EngineResult result = Engine().run(protocol, state, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_FALSE(result.all_satisfied);
  // Only the lone user on resource 1 is satisfied; the two users sharing
  // resource 0 (load 2 > threshold 1) are stuck.
  EXPECT_EQ(result.final_satisfied, 1u);
}

TEST(Runner, FinalSatisfiedMatchesState) {
  Xoshiro256 rng(5);
  const Instance inst = make_uniform_feasible(40, 4, 0.5, 1.0, rng);
  State state = State::random(inst, rng);
  SamplingProtocol protocol(SamplingProtocol::Rule::kAdmission);
  const EngineResult result = Engine().run(protocol, state, rng);
  EXPECT_EQ(result.final_satisfied, state.count_satisfied());
}

// ---- per-round trace rows (the trace sink succeeded the old recorder) ----

TEST(Trace, RecordsRoundZeroSnapshot) {
  Xoshiro256 rng(6);
  const Instance inst = make_uniform_feasible(30, 3, 0.5, 1.0, rng);
  State state = State::all_on(inst, 0);
  SamplingProtocol protocol(SamplingProtocol::Rule::kAdmission);
  obs::MemoryTraceSink sink;
  EngineConfig config;
  config.telemetry.sink = &sink;
  const EngineResult result = Engine(config).run(protocol, state, rng);
  EXPECT_TRUE(result.converged);
  const auto& rows = sink.rows();
  ASSERT_GE(rows.size(), 2u);
  EXPECT_EQ(rows.front().round, 0u);
  EXPECT_EQ(rows.front().migrations, 0u);
  EXPECT_EQ(rows.back().unsatisfied, 0u);
  // Rounds strictly increasing, cumulative counters non-decreasing.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].round, rows[i - 1].round + 1);
    EXPECT_GE(rows[i].migrations, rows[i - 1].migrations);
    EXPECT_GE(rows[i].messages, rows[i - 1].messages);
  }
}

TEST(Trace, StopsImmediatelyWhenStable) {
  const Instance inst = Instance::identical(2, 1.0, {0.5, 0.5});
  State state(inst, {0, 1});
  Xoshiro256 rng(8);
  SamplingProtocol protocol(SamplingProtocol::Rule::kAdmission);
  obs::MemoryTraceSink sink;
  EngineConfig config;
  config.telemetry.sink = &sink;
  const EngineResult result = Engine(config).run(protocol, state, rng);
  EXPECT_EQ(result.rounds, 0u);
  EXPECT_EQ(sink.rows().size(), 1u);  // just the round-0 snapshot
}

// ---- aggregation ----

TEST(Aggregate, DeterministicAndComplete) {
  const auto body = [](std::uint64_t seed) {
    Xoshiro256 rng(seed);
    const Instance inst = make_uniform_feasible(50, 5, 0.5, 1.0, rng);
    State state = State::random(inst, rng);
    SamplingProtocol protocol(SamplingProtocol::Rule::kAdmission);
    ReplicatedRun run;
    run.result = Engine().run(protocol, state, rng);
    run.num_users = inst.num_users();
    return run;
  };
  const AggregatedRuns a = aggregate_runs(11, 8, body);
  const AggregatedRuns b = aggregate_runs(11, 8, body);
  EXPECT_EQ(a.replications, 8u);
  EXPECT_DOUBLE_EQ(a.converged_fraction, 1.0);
  EXPECT_DOUBLE_EQ(a.rounds.mean(), b.rounds.mean());
  EXPECT_DOUBLE_EQ(a.satisfied_fraction.mean(), 1.0);
  EXPECT_GE(a.rounds_max, a.rounds_p95);
  EXPECT_GE(a.rounds_p95, 0.0);
}

TEST(Aggregate, RejectsZeroReplications) {
  EXPECT_THROW(
      aggregate_runs(1, 0, [](std::uint64_t) { return ReplicatedRun{}; }),
      std::invalid_argument);
}

}  // namespace
}  // namespace qoslb
