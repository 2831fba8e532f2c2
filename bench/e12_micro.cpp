// E12 (Table 4) — Microbenchmarks of the hot operations (google-benchmark).
//
// Keeps the cost model honest: per-probe, per-move, and per-round costs that
// the experiment-level message counts multiply out to, plus the cost of the
// exact optimizer used as the E7 baseline.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/generators.hpp"
#include "core/protocols/sampling.hpp"
#include "core/satisfaction.hpp"
#include "opt/dinic.hpp"
#include "opt/satisfaction.hpp"
#include "rng/distributions.hpp"
#include "rng/philox.hpp"
#include "rng/round_rng.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/des.hpp"

namespace qoslb {
namespace {

void BM_Xoshiro(benchmark::State& state) {
  Xoshiro256 rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng());
}
BENCHMARK(BM_Xoshiro);

void BM_PhiloxAt(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(Philox4x32::at(42, i++));
}
BENCHMARK(BM_PhiloxAt);

/// The ids a keying pass over one dense shard sees: 8192 ascending users.
std::vector<std::uint32_t> ascending_users() {
  std::vector<std::uint32_t> users(8192);
  for (std::uint32_t u = 0; u < users.size(); ++u) users[u] = u;
  return users;
}

// Per-user keying one user at a time: user_stream(u), then the probe draw
// and the lambda-coin draw, each one Philox block.
void BM_UserStreamScalar(benchmark::State& state) {
  const RoundRng streams(42, 7);
  const std::vector<std::uint32_t> users = ascending_users();
  for (auto _ : state) {
    for (const std::uint32_t u : users) {
      PhiloxEngine rng = streams.user_stream(u);
      benchmark::DoNotOptimize(rng());
      benchmark::DoNotOptimize(rng());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(users.size()));
}
BENCHMARK(BM_UserStreamScalar);

// The batch call over the same ids, then the same two draws per engine
// (the SIMD kernels' precomputed pair; the scalar kernel's engines compute
// them as they draw). The ids go in RoundRng::kChunk at a time into one
// chunk of engines, as RoundRng::for_each_stream() keys them. Arg: the
// kernel's lanes, 1 (scalar), 4 (AVX2) or 8 (AVX-512), each skipped where
// the CPU does not run it.
void BM_UserStreamsBatch(benchmark::State& state) {
  const auto kernel = static_cast<RoundRng::Keying>(state.range(0));
  if (!RoundRng::supported(kernel)) {
    state.SkipWithError("this CPU does not run the kernel");
    return;
  }
  const RoundRng streams(42, 7);
  const std::vector<std::uint32_t> users = ascending_users();
  std::vector<PhiloxEngine> engines(RoundRng::kChunk, streams.user_stream(0));
  for (auto _ : state) {
    for (std::size_t at = 0; at < users.size(); at += RoundRng::kChunk) {
      const std::span<const std::uint32_t> chunk(
          users.data() + at, std::min(RoundRng::kChunk, users.size() - at));
      streams.user_streams(chunk, engines.data(), kernel);
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        benchmark::DoNotOptimize(engines[i]());
        benchmark::DoNotOptimize(engines[i]());
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(users.size()));
}
BENCHMARK(BM_UserStreamsBatch)->Arg(1)->Arg(4)->Arg(8);

void BM_UniformBelow(benchmark::State& state) {
  Xoshiro256 rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(uniform_u64_below(rng, 12345));
}
BENCHMARK(BM_UniformBelow);

void BM_Threshold(benchmark::State& state) {
  Xoshiro256 rng(1);
  const Instance inst = make_uniform_feasible(1024, 64, 0.5, 1.5, rng);
  UserId u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(inst.threshold(u, 0));
    u = (u + 1) % 1024;
  }
}
BENCHMARK(BM_Threshold);

void BM_StateMove(benchmark::State& state) {
  Xoshiro256 rng(1);
  const Instance inst = make_uniform_feasible(1024, 64, 0.5, 1.0, rng);
  State s = State::round_robin(inst);
  ResourceId r = 0;
  for (auto _ : state) {
    s.move(0, r);
    r = (r + 1) % 64;
  }
}
BENCHMARK(BM_StateMove);

void BM_CountSatisfied(benchmark::State& state) {
  Xoshiro256 rng(1);
  const Instance inst = make_uniform_feasible(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(0)) / 16, 0.5, 1.5, rng);
  const State s = State::round_robin(inst);
  for (auto _ : state) benchmark::DoNotOptimize(s.count_satisfied());
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CountSatisfied)->Arg(1024)->Arg(16384);

void BM_EquilibriumCheckFastPath(benchmark::State& state) {
  Xoshiro256 rng(1);
  const Instance inst = make_uniform_feasible(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(0)) / 16, 0.5, 1.5, rng);
  const State s = State::round_robin(inst);
  for (auto _ : state) benchmark::DoNotOptimize(is_satisfaction_equilibrium(s));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EquilibriumCheckFastPath)->Arg(1024)->Arg(16384);

void BM_ProtocolRound(benchmark::State& state) {
  Xoshiro256 rng(1);
  const Instance inst = make_uniform_feasible(4096, 256, 0.5, 1.5, rng);
  SamplingProtocol protocol(SamplingProtocol::Rule::kAdaptive);
  State s = State::all_on(inst, 0);
  Counters counters;
  for (auto _ : state) {
    protocol.step(s, rng, counters);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ProtocolRound);

void BM_AdmissionRound(benchmark::State& state) {
  Xoshiro256 rng(1);
  const Instance inst = make_uniform_feasible(4096, 256, 0.5, 1.5, rng);
  SamplingProtocol protocol(SamplingProtocol::Rule::kAdmission);
  State s = State::all_on(inst, 0);
  Counters counters;
  for (auto _ : state) {
    protocol.step(s, rng, counters);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_AdmissionRound);

void BM_DesScheduleDrain(benchmark::State& state) {
  // The DES scheduling hot path: enqueue (heap push) + deliver (heap pop)
  // with a steady resident set of pending messages, jitter on so the heap
  // actually churns. Arg(1) pre-sizes the event storage via reserve();
  // Arg(0) grows it organically — the spread between the two is the
  // reallocation cost the reserve() hint removes.
  constexpr std::size_t kResident = 64;
  constexpr std::uint64_t kEvents = 4096;
  struct Relay : DesAgent {
    std::uint64_t budget = 0;
    void on_message(const Message& message, DesEngine& engine) override {
      (void)message;
      if (budget > 0) {
        --budget;
        engine.schedule_timer(0, 1.0);
      }
    }
  };
  for (auto _ : state) {
    Relay relay;
    relay.budget = kEvents;
    DesEngine engine(1, /*latency_jitter=*/0.25);
    if (state.range(0) != 0) engine.reserve(kResident + 1);
    engine.add_agent(&relay);
    for (std::size_t i = 0; i < kResident; ++i) engine.schedule_timer(0, 1.0);
    benchmark::DoNotOptimize(engine.run());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kEvents + kResident));
}
BENCHMARK(BM_DesScheduleDrain)->Arg(0)->Arg(1);

void BM_DinicBipartite(benchmark::State& state) {
  // 64 users x 4 resources matching (the E7 inner solve).
  Xoshiro256 rng(1);
  std::vector<int> thresholds(48);
  for (auto& t : thresholds) t = static_cast<int>(uniform_int(rng, 1, 16));
  const auto matrix = identical_threshold_matrix(thresholds, 4);
  for (auto _ : state)
    benchmark::DoNotOptimize(satisfied_for_occupancies(matrix, {12, 12, 12, 12}));
}
BENCHMARK(BM_DinicBipartite);

void BM_ExactOptimizer(benchmark::State& state) {
  Xoshiro256 rng(1);
  std::vector<int> thresholds(32);
  for (auto& t : thresholds) t = static_cast<int>(uniform_int(rng, 1, 12));
  for (auto _ : state)
    benchmark::DoNotOptimize(max_satisfied_identical(thresholds, 3));
}
BENCHMARK(BM_ExactOptimizer);

}  // namespace
}  // namespace qoslb

BENCHMARK_MAIN();
