#include "core/async/async_protocols.hpp"

#include <gtest/gtest.h>

#include "core/generators.hpp"
#include "rng/xoshiro256.hpp"

namespace qoslb {
namespace {

TEST(AsyncAdmission, FeasibleInstanceQuiescesFullySatisfied) {
  Xoshiro256 rng(1);
  const Instance inst = make_uniform_feasible(80, 8, 0.5, 1.0, rng);
  EngineConfig config;
  config.seed = 7;
  const AsyncRunResult result = run_async_admission(inst, config);
  EXPECT_TRUE(result.all_satisfied);
  EXPECT_EQ(result.satisfied, 80u);
  EXPECT_LT(result.events, config.max_events);  // queue drained
  EXPECT_EQ(result.termination, Termination::kQuiesced);
  EXPECT_FALSE(result.hit_event_cap);
  EXPECT_EQ(result.faults.total(), 0u);  // injector never attached
}

TEST(AsyncAdmission, DeterministicPerSeed) {
  Xoshiro256 rng(2);
  const Instance inst = make_uniform_feasible(40, 4, 0.5, 1.0, rng);
  EngineConfig config;
  config.seed = 5;
  const AsyncRunResult a = run_async_admission(inst, config);
  const AsyncRunResult b = run_async_admission(inst, config);
  EXPECT_EQ(a.events, b.events);
  EXPECT_DOUBLE_EQ(a.virtual_time, b.virtual_time);
  EXPECT_EQ(a.counters.migrations, b.counters.migrations);
}

TEST(AsyncAdmission, DifferentSeedsDifferentSchedules) {
  Xoshiro256 rng(3);
  const Instance inst = make_uniform_feasible(60, 6, 0.4, 1.5, rng);
  EngineConfig a_cfg, b_cfg;
  a_cfg.seed = 1;
  b_cfg.seed = 2;
  // Force real migration work so the schedules actually diverge.
  a_cfg.random_start = false;
  b_cfg.random_start = false;
  const AsyncRunResult a = run_async_admission(inst, a_cfg);
  const AsyncRunResult b = run_async_admission(inst, b_cfg);
  EXPECT_TRUE(a.all_satisfied);
  EXPECT_TRUE(b.all_satisfied);
  EXPECT_NE(a.virtual_time, b.virtual_time);  // jitter-dependent schedule
}

TEST(AsyncAdmission, InfeasibleInstanceIsCutOffAtMaxEvents) {
  const Instance inst = make_overloaded(30, 3, 2.0);
  EngineConfig config;
  config.max_events = 20000;
  const AsyncRunResult result = run_async_admission(inst, config);
  EXPECT_FALSE(result.all_satisfied);
  EXPECT_EQ(result.events, config.max_events);
  // Termination reason distinguishes the cutoff from real quiescence.
  EXPECT_EQ(result.termination, Termination::kEventCap);
  EXPECT_TRUE(result.hit_event_cap);
  // The stable population matches capacity: threshold 5 per resource.
  EXPECT_LE(result.satisfied, 15u);
}

TEST(AsyncAdmission, DeterministicStartPlacement) {
  Xoshiro256 rng(4);
  const Instance inst = make_uniform_feasible(20, 4, 0.6, 1.0, rng);
  EngineConfig config;
  config.random_start = false;  // everyone starts on resource 0
  const AsyncRunResult result = run_async_admission(inst, config);
  EXPECT_TRUE(result.all_satisfied);
  EXPECT_GT(result.counters.migrations, 0u);
}

TEST(AsyncAdmission, GrantRejectAccounting) {
  Xoshiro256 rng(5);
  const Instance inst = make_uniform_feasible(50, 5, 0.3, 1.0, rng);
  const AsyncRunResult result = run_async_admission(inst);
  EXPECT_EQ(result.counters.grants + result.counters.rejects,
            result.counters.migrate_requests);
  EXPECT_EQ(result.counters.grants, result.counters.migrations);
}

TEST(AsyncAdmission, SingleUserTrivial) {
  const Instance inst = Instance::identical(3, 1.0, {0.5});
  const AsyncRunResult result = run_async_admission(inst);
  EXPECT_TRUE(result.all_satisfied);
  EXPECT_EQ(result.counters.migrations, 0u);
}


TEST(AsyncOptimistic, DampedRunSettlesOnFeasibleInstance) {
  Xoshiro256 rng(6);
  const Instance inst = make_uniform_feasible(80, 8, 0.4, 1.0, rng);
  EngineConfig config;
  config.seed = 9;
  config.random_start = false;
  const AsyncRunResult result = run_async_optimistic(inst, 0.5, config);
  EXPECT_TRUE(result.all_satisfied);
  EXPECT_LT(result.events, config.max_events);
  EXPECT_EQ(result.termination, Termination::kQuiesced);
  // No handshake: every request is granted.
  EXPECT_EQ(result.counters.rejects, 0u);
  EXPECT_EQ(result.counters.grants, result.counters.migrate_requests);
}

TEST(AsyncOptimistic, CanOvershootWhereAdmissionCannot) {
  // Tight instance, concentrated start: the optimistic join path displaces
  // residents (observable as more migrations than the population needs),
  // while gated admission never displaces anyone.
  Xoshiro256 rng(7);
  const Instance inst = make_uniform_feasible(200, 10, 0.05, 1.0, rng);
  EngineConfig config;
  config.seed = 11;
  config.random_start = false;
  config.max_events = 400000;
  const AsyncRunResult optimistic = run_async_optimistic(inst, 1.0, config);
  const AsyncRunResult gated = run_async_admission(inst, config);
  EXPECT_GT(optimistic.counters.migrations, gated.counters.migrations);
  EXPECT_TRUE(gated.all_satisfied);
}

TEST(AsyncOptimistic, DeterministicPerSeed) {
  Xoshiro256 rng(8);
  const Instance inst = make_uniform_feasible(40, 4, 0.4, 1.0, rng);
  EngineConfig config;
  config.seed = 13;
  const AsyncRunResult a = run_async_optimistic(inst, 0.7, config);
  const AsyncRunResult b = run_async_optimistic(inst, 0.7, config);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.counters.migrations, b.counters.migrations);
}

TEST(AsyncOptimistic, RejectsBadLambda) {
  const Instance inst = Instance::identical(2, 1.0, {0.5});
  EXPECT_THROW(run_async_optimistic(inst, 0.0), std::invalid_argument);
  EXPECT_THROW(run_async_optimistic(inst, 1.5), std::invalid_argument);
}


// ---- explicit start placement ----

TEST(AsyncConfigStart, InitialAssignmentIsHonored) {
  Xoshiro256 rng(21);
  const Instance inst = make_uniform_feasible(24, 4, 0.6, 1.0, rng);
  EngineConfig config;
  // Everyone on resource 3: the run must drain users off it.
  config.initial_assignment.assign(24, ResourceId{3});
  const AsyncRunResult result = run_async_admission(inst, config);
  EXPECT_TRUE(result.all_satisfied);
  EXPECT_GT(result.counters.migrations, 0u);
}

TEST(AsyncConfigStart, RejectsBadInitialAssignment) {
  Xoshiro256 rng(22);
  const Instance inst = make_uniform_feasible(10, 2, 0.5, 1.0, rng);
  EngineConfig config;
  config.initial_assignment = {0, 1};  // wrong length
  EXPECT_THROW(run_async_admission(inst, config), std::invalid_argument);
  config.initial_assignment.assign(10, ResourceId{7});  // out of range
  EXPECT_THROW(run_async_admission(inst, config), std::invalid_argument);
}

// A crash window names an agent id: resources 0 .. m-1, then users
// m .. m+n-1. A window for any other id could never fire but would still
// arm the loss-tolerant protocol, so it is rejected.
TEST(AsyncFaults, RejectsACrashWindowForAnAgentThatDoesNotExist) {
  Xoshiro256 rng(23);
  const Instance inst = make_uniform_feasible(10, 2, 0.5, 1.0, rng);
  for (const AgentId agent : {AgentId{12}, AgentId{99999}, kNoAgent}) {
    EngineConfig config;
    config.faults.crash(agent, 0.0, 3.0);
    try {
      run_async_admission(inst, config);
      ADD_FAILURE() << "agent " << agent << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string expected = "crash window for agent " +
                                   std::to_string(agent) +
                                   ", but the run has 12 agents";
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(run_async_optimistic(inst, 0.5, config),
                 std::invalid_argument);
  }
  // The last user (agent m + n - 1) is a valid target.
  EngineConfig config;
  config.faults.crash(11, 0.0, 3.0);
  EXPECT_EQ(run_async_admission(inst, config).termination,
            Termination::kQuiesced);
}

// ---- fault tolerance ----

/// The scenario the fault layer exists for: uniform message loss, message
/// duplication, and a resource that crashes mid-run and recovers later. The
/// loss-tolerant protocol must still drive a feasible instance to full
/// satisfaction — the pre-fault implementation deadlocks into silent
/// quiescence on the first lost GRANT.
EngineConfig faulty_config(std::uint64_t seed) {
  EngineConfig config;
  config.seed = seed;
  config.random_start = false;  // concentrate load: forces real migrations
  config.faults.drop_all(0.10)
      .dup_all(0.05)
      .crash(/*agent=*/2, /*t_crash=*/5.0, /*t_recover=*/150.0);
  return config;
}

TEST(AsyncFaults, SurvivesLossDuplicationAndCrash) {
  Xoshiro256 rng(1);
  const Instance inst = make_uniform_feasible(80, 8, 0.5, 1.0, rng);
  const AsyncRunResult result = run_async_admission(inst, faulty_config(7));
  EXPECT_TRUE(result.all_satisfied);
  EXPECT_EQ(result.satisfied, 80u);
  EXPECT_EQ(result.termination, Termination::kQuiesced);
  // The injector actually did something.
  EXPECT_GT(result.faults.dropped, 0u);
  EXPECT_GT(result.faults.duplicated, 0u);
  // And the protocol noticed: silence was detected and answered.
  EXPECT_GT(result.counters.timeouts, 0u);
  EXPECT_GT(result.counters.retries, 0u);
  EXPECT_GT(result.counters.stale_drops, 0u);
}

TEST(AsyncFaults, DeterministicPerSeed) {
  Xoshiro256 rng(1);
  const Instance inst = make_uniform_feasible(80, 8, 0.5, 1.0, rng);
  const AsyncRunResult a = run_async_admission(inst, faulty_config(7));
  const AsyncRunResult b = run_async_admission(inst, faulty_config(7));
  EXPECT_EQ(a.events, b.events);
  EXPECT_DOUBLE_EQ(a.virtual_time, b.virtual_time);
  EXPECT_EQ(a.counters.retries, b.counters.retries);
  EXPECT_EQ(a.counters.timeouts, b.counters.timeouts);
  EXPECT_EQ(a.faults.dropped, b.faults.dropped);
  EXPECT_EQ(a.faults.crash_dropped, b.faults.crash_dropped);
  const AsyncRunResult c = run_async_admission(inst, faulty_config(8));
  EXPECT_NE(a.events, c.events);  // different seed, different realization
}

TEST(AsyncFaults, SeveralSeedsAllConverge) {
  Xoshiro256 rng(1);
  const Instance inst = make_uniform_feasible(80, 8, 0.5, 1.0, rng);
  for (const std::uint64_t seed : {11ull, 13ull, 99ull, 123ull}) {
    const AsyncRunResult result = run_async_admission(inst, faulty_config(seed));
    EXPECT_TRUE(result.all_satisfied) << "seed=" << seed;
    EXPECT_EQ(result.termination, Termination::kQuiesced) << "seed=" << seed;
  }
}

TEST(AsyncFaults, OptimisticSurvivesLossToo) {
  Xoshiro256 rng(6);
  const Instance inst = make_uniform_feasible(80, 8, 0.4, 1.0, rng);
  EngineConfig config;
  config.seed = 9;
  config.random_start = false;
  config.faults.drop_all(0.08).dup_all(0.05);
  const AsyncRunResult result = run_async_optimistic(inst, 0.5, config);
  EXPECT_TRUE(result.all_satisfied);
  EXPECT_EQ(result.termination, Termination::kQuiesced);
}

TEST(AsyncFaults, ForceTimeoutsAloneIsBenign) {
  // The loss-tolerant machinery armed on a fault-free network must still
  // quiesce fully satisfied (timeouts never fire spuriously enough to
  // diverge; stale suppression never eats a live reply for good).
  Xoshiro256 rng(2);
  const Instance inst = make_uniform_feasible(60, 6, 0.5, 1.0, rng);
  EngineConfig config;
  config.seed = 17;
  config.random_start = false;
  config.force_timeouts = true;
  const AsyncRunResult result = run_async_admission(inst, config);
  EXPECT_TRUE(result.all_satisfied);
  EXPECT_EQ(result.termination, Termination::kQuiesced);
  EXPECT_EQ(result.faults.total(), 0u);  // no injector attached
}

/// Golden values recorded from the pre-fault-layer implementation (commit
/// be5e005): with an inert fault plan the retrofit must reproduce the legacy
/// schedules and counters byte for byte — same events, same virtual time,
/// same message counts. If this test breaks, the trusting-mode path changed
/// behavior, which the fault layer promised not to do.
TEST(AsyncFaults, FaultFreeRunMatchesLegacyGolden) {
  {
    Xoshiro256 rng(1);
    const Instance inst = make_uniform_feasible(80, 8, 0.5, 1.0, rng);
    EngineConfig config;
    config.seed = 7;
    const AsyncRunResult r = run_async_admission(inst, config);
    EXPECT_EQ(r.events, 160u);
    EXPECT_DOUBLE_EQ(r.virtual_time, 2.8786575718813698);
    EXPECT_EQ(r.counters.probes, 80u);
    EXPECT_EQ(r.counters.migrations, 0u);
    EXPECT_EQ(r.satisfied, 80u);
  }
  {
    Xoshiro256 rng(42);
    const Instance inst = make_uniform_feasible(120, 10, 0.4, 1.2, rng);
    EngineConfig config;
    config.seed = 21;
    config.random_start = false;
    const AsyncRunResult r = run_async_admission(inst, config);
    EXPECT_EQ(r.events, 865u);
    EXPECT_DOUBLE_EQ(r.virtual_time, 12.078577307892816);
    EXPECT_EQ(r.counters.probes, 242u);
    EXPECT_EQ(r.counters.migrate_requests, 120u);
    EXPECT_EQ(r.counters.grants, 118u);
    EXPECT_EQ(r.counters.rejects, 2u);
    EXPECT_EQ(r.counters.migrations, 118u);
    EXPECT_EQ(r.satisfied, 120u);
  }
  {
    Xoshiro256 rng(6);
    const Instance inst = make_uniform_feasible(80, 8, 0.4, 1.0, rng);
    EngineConfig config;
    config.seed = 9;
    config.random_start = false;
    const AsyncRunResult r = run_async_optimistic(inst, 0.5, config);
    EXPECT_EQ(r.events, 979u);
    EXPECT_DOUBLE_EQ(r.virtual_time, 24.069847277287586);
    EXPECT_EQ(r.counters.probes, 341u);
    EXPECT_EQ(r.counters.migrate_requests, 82u);
    EXPECT_EQ(r.counters.grants, 82u);
    EXPECT_EQ(r.counters.migrations, 82u);
    EXPECT_EQ(r.satisfied, 80u);
  }
}

}  // namespace
}  // namespace qoslb
