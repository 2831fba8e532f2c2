// E15 (Fig 9) — Open-system saturation sweep.
//
// Claim validated: with continuous Poisson arrivals and geometric lifetimes,
// the continuously-running admission protocol keeps the violation fraction
// near zero while the offered load ρ stays below capacity and degrades with
// a sharp knee as ρ crosses 1 — the open-system counterpart of the static
// slack sweep (E6). ρ = λ·L·E[occupancy-per-user] / (m·T̄): arrivals λ per
// round, lifetime L rounds, thresholds T̄.

#include <iostream>

#include "bench_common.hpp"
#include "core/open/open_system.hpp"
#include "rng/splitmix64.hpp"

using namespace qoslb;
using namespace qoslb::bench;

static int bench_main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const CommonArgs common = read_common(args, /*default_reps=*/5);
  const long long m = static_cast<long long>(args.get_count("m", 64));
  const long long rounds =
      static_cast<long long>(args.get_count("rounds", 3000));
  args.finish();

  // Thresholds ~ [20, 25] => per-resource capacity ~22.5 users; saturation
  // population m * 22.5. With lifetime 200 rounds, the saturating arrival
  // rate is m * 22.5 / 200.
  const double lifetime = 200.0;
  const double capacity_population = static_cast<double>(m) * 22.5;
  const std::vector<double> rhos = {0.3, 0.5, 0.7, 0.85, 0.95, 1.05, 1.2};

  TablePrinter table({"rho", "arrival_rate", "mean_population",
                      "violation_frac", "rounds_to_sat", "never_satisfied_frac",
                      "migrations_per_round"});
  std::cout << "E15: open-system saturation sweep (m=" << m
            << ", lifetime=" << lifetime << " rounds, " << rounds
            << " rounds/run, reps=" << common.reps << ")\n";

  for (const double rho : rhos) {
    RunningStat population, violations, delay, never, migrations;
    for (std::size_t rep = 0; rep < common.reps; ++rep) {
      OpenSystemConfig config;
      config.num_resources = static_cast<std::size_t>(m);
      config.arrival_rate = rho * capacity_population / lifetime;
      config.mean_lifetime = lifetime;
      config.q_lo = 0.04;
      config.q_hi = 0.05;
      config.rounds = static_cast<std::uint64_t>(rounds);
      config.warmup_rounds = static_cast<std::uint64_t>(rounds) / 3;
      config.seed = derive_seed(common.seed, rep + static_cast<std::size_t>(rho * 100));
      const OpenSystemMetrics metrics = run_open_system(config);
      population.add(metrics.mean_population);
      violations.add(metrics.violation_fraction);
      delay.add(metrics.mean_rounds_to_satisfaction);
      never.add(metrics.arrivals == 0
                    ? 0.0
                    : static_cast<double>(metrics.never_satisfied) /
                          static_cast<double>(metrics.arrivals));
      migrations.add(static_cast<double>(metrics.migrations) /
                     static_cast<double>(rounds));
    }
    table.cell(rho)
        .cell(rho * capacity_population / lifetime)
        .cell(population.mean())
        .cell(violations.mean())
        .cell(delay.mean())
        .cell(never.mean())
        .cell(migrations.mean())
        .end_row();
  }

  emit(table, common);
  return 0;
}

int main(int argc, char** argv) { return run_bench(argc, argv, bench_main); }
