// E18 (Table 9) — Initial-placement ablation.
//
// How much work the protocol has to do depends on where users start. The
// table compares four placements at tight slack: all-on-one (adversarial),
// uniform random, power-of-two-choices (balanced-by-construction), and
// round-robin (perfect). Reported: initially satisfied fraction, then rounds
// and migrations the admission protocol needs from there. Two-choices nearly
// eliminates the distributed balancing work — the classic balls-into-bins
// result carried into the QoS setting.

#include <functional>
#include <iostream>

#include "bench_common.hpp"
#include "rng/splitmix64.hpp"

using namespace qoslb;
using namespace qoslb::bench;

static int bench_main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const CommonArgs common = read_common(args, /*default_reps=*/10);
  const long long n = static_cast<long long>(args.get_count("n", 4096));
  const long long m = static_cast<long long>(args.get_count("m", 256));
  const double slack = args.get_double("slack", 0.1);
  args.finish();

  struct Placement {
    std::string label;
    std::function<State(const Instance&, Xoshiro256&)> build;
  };
  const std::vector<Placement> placements = {
      {"all-on-one",
       [](const Instance& i, Xoshiro256&) { return State::all_on(i, 0); }},
      {"uniform-random",
       [](const Instance& i, Xoshiro256& rng) { return State::random(i, rng); }},
      {"two-choices",
       [](const Instance& i, Xoshiro256& rng) { return State::two_choices(i, rng); }},
      {"round-robin",
       [](const Instance& i, Xoshiro256&) { return State::round_robin(i); }},
  };

  TablePrinter table({"placement", "initial_satisfied_frac", "initial_max_load",
                      "rounds_mean", "migrations_mean", "converged"});
  std::cout << "E18: initial placement ablation (n=" << n << ", m=" << m
            << ", slack=" << slack << ", admission protocol, reps="
            << common.reps << ")\n";

  for (const Placement& placement : placements) {
    RunningStat initial_satisfied, initial_max, rounds, migrations;
    std::size_t converged = 0;
    for (std::size_t rep = 0; rep < common.reps; ++rep) {
      Xoshiro256 rng(derive_seed(common.seed, rep));
      const Instance instance = make_uniform_feasible(
          static_cast<std::size_t>(n), static_cast<std::size_t>(m), slack, 1.0,
          rng);
      State state = placement.build(instance, rng);
      initial_satisfied.add(static_cast<double>(state.count_satisfied()) /
                            static_cast<double>(instance.num_users()));
      initial_max.add(static_cast<double>(state.max_load()));

      ProtocolSpec spec;
      spec.kind = "admission";
      const auto protocol = make_protocol(spec);
      EngineConfig config;
      config.max_rounds = 50000;
      const EngineResult result = Engine(config).run(*protocol, state, rng);
      if (result.converged) ++converged;
      rounds.add(static_cast<double>(result.rounds));
      migrations.add(static_cast<double>(result.counters.migrations));
    }
    table.cell(placement.label)
        .cell(initial_satisfied.mean())
        .cell(initial_max.mean())
        .cell(rounds.mean())
        .cell(migrations.mean())
        .cell(static_cast<double>(converged) / static_cast<double>(common.reps))
        .end_row();
  }

  emit(table, common);
  return 0;
}

int main(int argc, char** argv) { return run_bench(argc, argv, bench_main); }
