// E10 (Fig 7) — Simulator engine throughput.
//
// Measures the substrate itself (DESIGN.md §6): synchronous round-engine
// agent-steps per second as n scales, and discrete-event engine deliveries
// per second. This is the hpc-parallel sanity check that the framework — not
// the protocols — stays off the critical path in the larger experiments.

#include <iostream>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/async/async_protocols.hpp"
#include "obs/clock.hpp"

using namespace qoslb;
using namespace qoslb::bench;

static int bench_main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const CommonArgs common = read_common(args, /*default_reps=*/3);
  const auto sizes = args.get_count_list("sizes", {1024, 4096, 16384, 65536});
  args.finish();

  TablePrinter table({"engine", "n", "work_units", "seconds", "units_per_sec"});
  BenchJson json("e10_engine_throughput");
  std::cout << "E10: engine throughput (reps=" << common.reps
            << ", best-of runs reported)\n";

  // Synchronous round engine: drive the adaptive protocol on a slack
  // instance from the all-on-one state; one work unit = one user-round.
  for (const long long n : sizes) {
    const std::size_t m = static_cast<std::size_t>(n) / 16;
    double best_rate = 0, best_seconds = 0;
    std::uint64_t units = 0, rounds = 0;
    for (std::size_t rep = 0; rep < common.reps; ++rep) {
      Xoshiro256 rng(common.seed + rep);
      const Instance instance =
          make_uniform_feasible(static_cast<std::size_t>(n), m, 0.5, 1.0, rng);
      State state = State::all_on(instance, 0);
      ProtocolSpec spec;
      spec.kind = "adaptive";
      const auto protocol = make_protocol(spec);
      EngineConfig config;
      config.max_rounds = 1u << 16;
      obs::Stopwatch watch;
      const EngineResult result = Engine(config).run(*protocol, state, rng);
      const double seconds = watch.seconds();
      units = result.rounds * static_cast<std::uint64_t>(n);
      const double rate = static_cast<double>(units) / seconds;
      if (rate > best_rate) {
        best_rate = rate;
        best_seconds = seconds;
        rounds = result.rounds;
      }
    }
    table.cell("round(sync)")
        .cell(n)
        .cell(static_cast<unsigned long long>(units))
        .cell(best_seconds)
        .cell(best_rate)
        .end_row();
    json.add_row()
        .field("engine", "round(sync)")
        .field("n", static_cast<long long>(n))
        .field("threads", 1LL)
        .field("seconds", best_seconds)
        .field("users_per_sec", best_rate)
        .field("rounds_per_sec",
               best_seconds > 0 ? static_cast<double>(rounds) / best_seconds : 0.0);
  }

  // Discrete-event engine: asynchronous admission; one unit = one delivery.
  for (const long long n : sizes) {
    if (n > 16384) continue;  // DES carries per-message overhead; keep it sane
    double best_rate = 0, best_seconds = 0;
    std::uint64_t units = 0;
    for (std::size_t rep = 0; rep < common.reps; ++rep) {
      Xoshiro256 rng(common.seed + rep);
      const Instance instance = make_uniform_feasible(
          static_cast<std::size_t>(n), static_cast<std::size_t>(n) / 16, 0.5,
          1.0, rng);
      EngineConfig config;
      config.seed = common.seed + rep;
      config.random_start = false;
      obs::Stopwatch watch;
      const EngineResult result = Engine(config).run_async_admission(instance);
      const double seconds = watch.seconds();
      units = result.events;
      const double rate = static_cast<double>(units) / seconds;
      if (rate > best_rate) {
        best_rate = rate;
        best_seconds = seconds;
      }
    }
    table.cell("des(async)")
        .cell(n)
        .cell(static_cast<unsigned long long>(units))
        .cell(best_seconds)
        .cell(best_rate)
        .end_row();
    json.add_row()
        .field("engine", "des(async)")
        .field("n", static_cast<long long>(n))
        .field("threads", 1LL)
        .field("seconds", best_seconds)
        .field("events_per_sec", best_rate);
  }

  emit(table, common);
  json.write("BENCH_engine.json");
  return 0;
}

int main(int argc, char** argv) { return run_bench(argc, argv, bench_main); }
