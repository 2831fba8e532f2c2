// E19 (Table 10) — ε-sweep between the two solution concepts.
//
// HybridEpsilonGreedy interpolates E14's endpoints: ε = 0 stops at the first
// satisfaction equilibrium; ε > 0 lets satisfied users keep polishing
// quality until a Nash balance. The sweep shows what ε buys (minimum
// quality, load spread) and what it costs (rounds, migrations) — the
// practical dial a deployment would tune.

#include <iostream>

#include "bench_common.hpp"
#include "core/dynamics/hybrid.hpp"
#include "rng/splitmix64.hpp"

using namespace qoslb;
using namespace qoslb::bench;

static int bench_main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const CommonArgs common = read_common(args, /*default_reps=*/10);
  const long long n = static_cast<long long>(args.get_count("n", 1024));
  const long long m = static_cast<long long>(args.get_count("m", 64));
  const double slack = args.get_double("slack", 0.3);
  args.finish();

  TablePrinter table({"epsilon", "rounds_mean", "migrations_mean",
                      "min_quality_mean", "spread_mean", "converged"});
  std::cout << "E19: hybrid epsilon sweep (n=" << n << ", m=" << m
            << ", slack=" << slack << ", all-on-one start, reps="
            << common.reps << ")\n";

  for (const double epsilon : {0.0, 0.01, 0.05, 0.2, 0.5, 1.0}) {
    RunningStat rounds, migrations, min_quality, spread;
    std::size_t converged = 0;
    for (std::size_t rep = 0; rep < common.reps; ++rep) {
      Xoshiro256 rng(derive_seed(common.seed, rep));
      const Instance instance = make_uniform_feasible(
          static_cast<std::size_t>(n), static_cast<std::size_t>(m), slack, 1.0,
          rng);
      State state = State::all_on(instance, 0);
      HybridEpsilonGreedy protocol(0.5, epsilon);
      EngineConfig config;
      config.max_rounds = 100000;
      const EngineResult result = Engine(config).run(protocol, state, rng);
      if (result.converged) ++converged;
      rounds.add(static_cast<double>(result.rounds));
      migrations.add(static_cast<double>(result.counters.migrations));
      double worst = state.quality_of(0);
      for (UserId u = 1; u < state.num_users(); ++u)
        worst = std::min(worst, state.quality_of(u));
      min_quality.add(worst);
      spread.add(static_cast<double>(state.max_load() - state.min_load()));
    }
    table.cell(epsilon)
        .cell(rounds.mean())
        .cell(migrations.mean())
        .cell(min_quality.mean(), 5)
        .cell(spread.mean())
        .cell(static_cast<double>(converged) / static_cast<double>(common.reps))
        .end_row();
  }

  emit(table, common);
  return 0;
}

int main(int argc, char** argv) { return run_bench(argc, argv, bench_main); }
