// The telemetry determinism contract (docs/observability.md): attaching
// metrics, trace and decision sinks, and a clock must leave every
// simulation output — assignments, round counts, counters, trajectories —
// bit-identical to the telemetry-off run, across thread counts and engine
// modes, on the sync, weighted, and async paths. Plus the accounting
// itself: trace rows per round, metrics mirroring the run counters,
// trace_every thinning, and virtual-time phase attribution for the DES.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/potential.hpp"
#include "net/generators.hpp"
#include "obs/decision_sink.hpp"
#include "obs/perf_counters.hpp"
#include "qoslb.hpp"
#include "rng/round_rng.hpp"

namespace qoslb {
namespace {

Instance test_instance(std::size_t n, std::size_t m) {
  Xoshiro256 rng(1);
  return make_uniform_feasible(n, m, 0.5, 1.5, rng);
}

template <typename Model>
std::vector<ResourceId> assignment_of(const BasicState<Model>& state) {
  std::vector<ResourceId> assignment(state.num_users());
  for (UserId u = 0; u < state.num_users(); ++u)
    assignment[u] = state.resource_of(u);
  return assignment;
}

std::vector<std::uint64_t> counters_of(const Counters& counters) {
  std::vector<std::uint64_t> values;
  Counters::for_each_field(
      [&values](const char*, std::uint64_t value) { values.push_back(value); },
      counters);
  return values;
}

/// A protocol kind: a registry kind, or one of the weighted kinds w-uniform
/// (with `lambda`), w-admission and w-seq-br.
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

std::unique_ptr<WeightedProtocol> make_weighted_protocol(
    const ShardedCase& param) {
  if (param.kind == "w-uniform")
    return std::make_unique<WeightedUniformSampling>(param.lambda);
  if (param.kind == "w-admission")
    return std::make_unique<WeightedAdmissionControl>();
  return std::make_unique<WeightedSequentialBestResponse>();
}

std::string case_name(const ::testing::TestParamInfo<ShardedCase>& info) {
  std::string name = info.param.kind;
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

EngineConfig base_config(const obs::Telemetry& telemetry) {
  EngineConfig config;
  config.shard_size = 128;
  config.max_rounds = 400;
  config.record_trajectory = true;
  config.telemetry = telemetry;
  return config;
}

/// The acceptance gate behind TelemetryInvariance for one load model:
/// telemetry-off reference vs telemetry-on runs at threads {1, 2, 4, 8} in
/// dense and active modes. `make_state` and `make_protocol` build a fresh
/// start state and protocol for each run.
template <typename MakeState, typename MakeProtocol>
void expect_telemetry_invariance(const std::string& kind,
                                 const MakeState& make_state,
                                 const MakeProtocol& make_protocol) {
  // Reference: telemetry off, dense, one thread.
  std::vector<ResourceId> reference;
  EngineResult reference_result;
  {
    auto state = make_state();
    const auto protocol = make_protocol();
    Xoshiro256 rng(77);
    reference_result =
        Engine(base_config(obs::Telemetry{})).run(*protocol, state, rng);
    reference = assignment_of(state);
    EXPECT_FALSE(reference_result.telemetry.enabled);
  }
  EXPECT_EQ(reference_result.unsatisfied_trajectory.size(),
            reference_result.rounds)
      << kind;

  obs::SteadyClock clock;
  // Unavailable under a locked-down perf_event_paranoid; either way
  // attaching it must not move the run.
  obs::PerfCounters perf;
  for (const EngineMode mode : {EngineMode::kDense, EngineMode::kActive}) {
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      obs::MetricsRegistry metrics;
      obs::MemoryTraceSink sink;
      obs::MemoryDecisionSink decisions;
      obs::Telemetry telemetry;
      telemetry.metrics = &metrics;
      telemetry.sink = &sink;
      telemetry.decisions = &decisions;
      telemetry.clock = &clock;
      telemetry.perf = &perf;

      auto state = make_state();
      const auto protocol = make_protocol();
      Xoshiro256 rng(77);
      EngineConfig config = base_config(telemetry);
      config.mode = mode;
      config.threads = threads;
      const EngineResult result = Engine(config).run(*protocol, state, rng);

      const std::string label = kind +
                                (mode == EngineMode::kActive ? " active"
                                                             : " dense") +
                                " threads=" + std::to_string(threads);
      EXPECT_EQ(assignment_of(state), reference) << label;
      EXPECT_EQ(result.rounds, reference_result.rounds) << label;
      EXPECT_EQ(result.converged, reference_result.converged) << label;
      EXPECT_EQ(result.final_satisfied, reference_result.final_satisfied)
          << label;
      EXPECT_EQ(result.final_satisfied_weight, state.satisfied_weight())
          << label;
      EXPECT_EQ(result.unsatisfied_trajectory,
                reference_result.unsatisfied_trajectory)
          << label;
      EXPECT_EQ(counters_of(result.counters),
                counters_of(reference_result.counters))
          << label;

      // The accounting contract: one row per executed round plus the
      // round-0 snapshot, identical across every (mode, threads) pair.
      EXPECT_TRUE(result.telemetry.enabled) << label;
      EXPECT_EQ(result.telemetry.trace_rows, result.rounds + 1) << label;
      ASSERT_EQ(sink.rows().size(), result.rounds + 1) << label;
      EXPECT_EQ(sink.rows().back().potential, rosenthal_potential(state))
          << label;
      EXPECT_EQ(sink.rows().back().max_load, state.max_load()) << label;
      ASSERT_EQ(sink.runs().size(), 1u) << label;
      EXPECT_EQ(sink.runs()[0].threads, result.threads_used) << label;
      EXPECT_EQ(metrics.gauge_value(metrics.find_gauge("perf/available")),
                perf.available() ? 1.0 : 0.0)
          << label;
      // step() protocols ignore mode and threads: they run inline on the
      // caller's RNG, take no master-seed fold, and the trace header says
      // so. They record no per-user decisions, hence no diag rows either.
      if (protocol->supports_step_users()) {
        EXPECT_EQ(decisions.diags().size(), result.rounds) << label;
      } else {
        EXPECT_EQ(sink.runs()[0].mode, "sequential") << label;
        EXPECT_EQ(sink.runs()[0].threads, 1u) << label;
        EXPECT_EQ(sink.runs()[0].seed, config.seed) << label;
        EXPECT_EQ(result.threads_used, 1u) << label;
        EXPECT_TRUE(decisions.decisions().empty()) << label;
        EXPECT_TRUE(decisions.diags().empty()) << label;
      }
    }
  }
}

class TelemetryInvariance : public ::testing::TestWithParam<ShardedCase> {};

// For every sharded protocol, for step() protocols, which ignore mode and
// threads, and for the weighted protocols, which are step() protocols on the
// same round loop.
TEST_P(TelemetryInvariance, SinksOnAndOffProduceIdenticalRuns) {
  const ShardedCase& param = GetParam();
  if (param.kind.starts_with("w-")) {
    Xoshiro256 rng(1);
    const WeightedInstance instance =
        make_weighted_feasible(600, 16, 0.3, 4, 1.0, rng);
    expect_telemetry_invariance(
        param.kind, [&] { return WeightedState::all_on(instance, 0); },
        [&] { return make_weighted_protocol(param); });
    return;
  }
  const Instance instance = test_instance(2000, 32);
  const Graph ring = make_ring(32);
  expect_telemetry_invariance(
      param.kind, [&] { return State::all_on(instance, 0); },
      [&] {
        ProtocolSpec spec;
        spec.kind = param.kind;
        spec.lambda = param.lambda;
        spec.graph = &ring;
        return make_protocol(spec);
      });
}

INSTANTIATE_TEST_SUITE_P(AllShardedProtocols, TelemetryInvariance,
                         ::testing::ValuesIn(sharded_cases()), case_name);
INSTANTIATE_TEST_SUITE_P(StepProtocols, TelemetryInvariance,
                         ::testing::Values(ShardedCase{"seq-br", 1.0},
                                           ShardedCase{"cached", 0.5}),
                         case_name);
INSTANTIATE_TEST_SUITE_P(WeightedProtocols, TelemetryInvariance,
                         ::testing::Values(ShardedCase{"w-uniform", 0.5},
                                           ShardedCase{"w-admission", 1.0},
                                           ShardedCase{"w-seq-br", 1.0}),
                         case_name);

TEST(Telemetry, MetricsMirrorTheRunCounters) {
  const Instance instance = test_instance(800, 16);
  State state = State::all_on(instance, 0);
  ProtocolSpec spec;
  spec.kind = "uniform";
  spec.lambda = 0.5;
  const auto protocol = make_protocol(spec);

  obs::MetricsRegistry metrics;
  obs::SteadyClock clock;
  obs::Telemetry telemetry;
  telemetry.metrics = &metrics;
  telemetry.clock = &clock;
  EngineConfig config = base_config(telemetry);
  Xoshiro256 rng(5);
  const EngineResult result = Engine(config).run(*protocol, state, rng);
  ASSERT_TRUE(result.converged);

  const auto counter = [&](const char* name) {
    const obs::CounterHandle handle = metrics.find_counter(name);
    EXPECT_TRUE(handle.valid()) << name;
    return handle.valid() ? metrics.counter_value(handle) : 0;
  };
  EXPECT_EQ(counter("engine/rounds"), result.counters.rounds);
  EXPECT_EQ(counter("engine/migrations"), result.counters.migrations);
  EXPECT_EQ(counter("engine/probes"), result.counters.probes);
  EXPECT_EQ(counter("engine/messages"), result.counters.messages());
  EXPECT_EQ(counter("trace/rows"), 0u);  // no sink attached
  EXPECT_EQ(metrics.gauge_value(metrics.find_gauge("engine/threads")),
            static_cast<double>(result.threads_used));
  // Which keying kernel the host ran: 8 lanes for AVX-512, 4 for AVX2, 1
  // for scalar.
  const double lanes =
      metrics.gauge_value(metrics.find_gauge("rng/keying_lanes"));
  EXPECT_EQ(lanes, static_cast<double>(RoundRng::host_keying()));
  EXPECT_TRUE(lanes == 1.0 || lanes == 4.0 || lanes == 8.0) << lanes;
  EXPECT_EQ(metrics.gauge_value(metrics.find_gauge("state/unsatisfied")), 0.0);
  EXPECT_EQ(metrics.gauge_value(metrics.find_gauge("state/potential")),
            rosenthal_potential(state));

  // The active-set histogram saw every executed round.
  const obs::HistogramHandle hist =
      metrics.find_histogram("engine/active_set_size");
  ASSERT_TRUE(hist.valid());
  EXPECT_EQ(metrics.histogram_data(hist).total(), result.rounds);

  // Phase timers ran on the driving thread: one step entry per round.
  EXPECT_EQ(result.telemetry.phases[obs::Phase::kStep].count, result.rounds);
  EXPECT_GE(result.telemetry.phases[obs::Phase::kSatisfactionCheck].count,
            result.rounds);
}

TEST(Telemetry, TraceEveryThinsRowsButKeepsSnapshotAndFinal) {
  const Instance instance = test_instance(800, 16);
  ProtocolSpec spec;
  spec.kind = "uniform";
  spec.lambda = 0.05;  // light damping: enough rounds to exercise thinning

  // Reference run to learn the round count.
  std::uint64_t rounds = 0;
  {
    State state = State::all_on(instance, 0);
    const auto protocol = make_protocol(spec);
    Xoshiro256 rng(5);
    rounds = Engine(base_config(obs::Telemetry{}))
                 .run(*protocol, state, rng)
                 .rounds;
  }
  ASSERT_GT(rounds, 7u);

  obs::MemoryTraceSink sink;
  obs::Telemetry telemetry;
  telemetry.sink = &sink;
  telemetry.trace_every = 7;
  State state = State::all_on(instance, 0);
  const auto protocol = make_protocol(spec);
  Xoshiro256 rng(5);
  const EngineResult result =
      Engine(base_config(telemetry)).run(*protocol, state, rng);
  EXPECT_EQ(result.rounds, rounds);

  // Expected rows: round 0, every 7th round, and the final round always.
  std::vector<std::uint64_t> expected = {0};
  for (std::uint64_t r = 7; r <= rounds; r += 7) expected.push_back(r);
  if (expected.back() != rounds) expected.push_back(rounds);
  std::vector<std::uint64_t> got;
  for (const obs::TraceRow& row : sink.rows()) got.push_back(row.round);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(result.telemetry.trace_rows, expected.size());
}

TEST(Telemetry, AsyncRunsAreUnchangedAndTimeEventDispatchVirtually) {
  Xoshiro256 rng(3);
  const Instance instance = make_uniform_feasible(300, 12, 0.4, 1.5, rng);

  EngineConfig off;
  off.seed = 11;
  off.random_start = false;
  const AsyncRunResult reference = run_async_admission(instance, off);
  EXPECT_FALSE(reference.telemetry.enabled);

  obs::MetricsRegistry metrics;
  EngineConfig on;
  on.seed = 11;
  on.random_start = false;
  on.telemetry.metrics = &metrics;
  // The Engine facade is the metrics-exporting async entry point.
  const EngineResult result = Engine(on).run_async_admission(instance);

  EXPECT_EQ(result.final_satisfied, reference.satisfied);
  EXPECT_EQ(result.events, reference.events);
  EXPECT_EQ(result.virtual_time, reference.virtual_time);
  EXPECT_EQ(result.counters.messages(), reference.counters.messages());

  // kEventDispatch is measured against the DES virtual clock: its seconds
  // are the run's virtual span and its count the delivered events.
  const obs::PhaseStat& dispatch =
      result.telemetry.phases[obs::Phase::kEventDispatch];
  EXPECT_DOUBLE_EQ(dispatch.seconds, result.virtual_time);
  EXPECT_EQ(dispatch.count, result.events);
  EXPECT_EQ(metrics.counter_value(metrics.find_counter("des/events")),
            result.events);
}

// Weighted runs go through the same round loop, so they write trace rows
// and state gauges, with loads and the potential in weight units.
TEST(Telemetry, WeightedRunsTraceInWeightUnits) {
  Xoshiro256 rng(9);
  const WeightedInstance instance =
      make_weighted_feasible(100, 8, 0.3, 4, 1.0, rng);
  WeightedAdmissionControl protocol;
  WeightedState state = WeightedState::all_on(instance, 0);

  obs::MetricsRegistry metrics;
  obs::MemoryTraceSink sink;
  obs::SteadyClock clock;
  EngineConfig config;
  config.max_rounds = 100000;
  config.telemetry.metrics = &metrics;
  config.telemetry.sink = &sink;
  config.telemetry.clock = &clock;
  const EngineResult result = Engine(config).run(protocol, state, rng);

  EXPECT_TRUE(result.telemetry.enabled);
  EXPECT_EQ(metrics.counter_value(metrics.find_counter("engine/rounds")),
            result.counters.rounds);
  EXPECT_EQ(result.telemetry.phases[obs::Phase::kStep].count, result.rounds);
  ASSERT_EQ(sink.rows().size(), result.rounds + 1);
  // Round 0: the whole weight on resource 0, Σ_{k=1..W} k / s_0.
  const auto total = static_cast<double>(instance.total_weight());
  const obs::TraceRow& first = sink.rows().front();
  EXPECT_EQ(first.max_load, static_cast<std::int64_t>(instance.total_weight()));
  EXPECT_EQ(first.potential, total * (total + 1) / 2.0 / instance.capacity(0));
  EXPECT_EQ(sink.rows().back().potential, rosenthal_potential(state));
  EXPECT_EQ(metrics.gauge_value(metrics.find_gauge("state/potential")),
            rosenthal_potential(state));
  EXPECT_EQ(metrics.gauge_value(metrics.find_gauge("state/max_load")),
            static_cast<double>(state.max_load()));
  EXPECT_EQ(result.final_satisfied_weight, state.satisfied_weight());
}

}  // namespace
}  // namespace qoslb
