// E9 (Table 3) — Sequential best-response baseline: moves to equilibrium.
//
// Claim validated: the sequential dynamic terminates, and the number of
// migrations it needs grows linearly in n (each step moves one user, and on
// slack-feasible instances almost every unsatisfied user needs only O(1)
// moves). Reported as total steps, migrations, and migrations per user, with
// a power-law fit of migrations vs n (exponent ≈ 1).

#include <iostream>

#include "bench_common.hpp"
#include "stats/regression.hpp"

using namespace qoslb;
using namespace qoslb::bench;

static int bench_main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const CommonArgs common = read_common(args, /*default_reps=*/10);
  const auto sizes = args.get_count_list("sizes", {128, 256, 512, 1024, 2048, 4096});
  const double slack = args.get_double("slack", 0.4);
  args.finish();

  TablePrinter table({"order", "n", "steps_mean", "migrations_mean",
                      "migrations_per_user", "converged"});
  std::cout << "E9: sequential best response (n/m=16, slack=" << slack
            << ", all-on-one start, reps=" << common.reps << ")\n";

  for (const std::string kind : {"seq-br", "seq-br-rr"}) {
    std::vector<double> xs, ys;
    for (const long long n : sizes) {
      const std::size_t m = static_cast<std::size_t>(n) / 16;
      const AggregatedRuns agg = aggregate_runs(
          common.seed ^ static_cast<std::uint64_t>(n), common.reps,
          [&](std::uint64_t seed) {
            Xoshiro256 rng(seed);
            const Instance instance = make_uniform_feasible(
                static_cast<std::size_t>(n), m, slack, 1.5, rng);
            State state = State::all_on(instance, 0);
            ProtocolSpec spec;
            spec.kind = kind;
            const auto protocol = make_protocol(spec);
            EngineConfig config;
            config.max_rounds = static_cast<std::uint64_t>(n) * 64;
            ReplicatedRun run;
            run.result = Engine(config).run(*protocol, state, rng);
            run.num_users = instance.num_users();
            return run;
          });
      table.cell(kind)
          .cell(n)
          .cell(agg.rounds.mean())
          .cell(agg.migrations.mean())
          .cell(agg.migrations.mean() / static_cast<double>(n))
          .cell(agg.converged_fraction)
          .end_row();
      xs.push_back(static_cast<double>(n));
      ys.push_back(std::max(1.0, agg.migrations.mean()));
    }
    const LinearFit fit = fit_power(xs, ys);
    std::cout << "fit[" << kind << "]: migrations ~ n^" << fit.slope
              << " (r2=" << fit.r_squared << ")\n";
  }

  emit(table, common);
  return 0;
}

int main(int argc, char** argv) { return run_bench(argc, argv, bench_main); }
