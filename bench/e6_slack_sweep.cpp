// E6 (Fig 5) — Convergence cost as the feasibility slack shrinks.
//
// Claim validated: convergence time blows up as the instance approaches the
// feasibility boundary (slack → 0): with no headroom, the last unsatisfied
// users must find exactly the residual free slots, so the per-round success
// probability collapses. Ample slack gives fast, flat convergence.

#include <iostream>

#include "bench_common.hpp"

using namespace qoslb;
using namespace qoslb::bench;

static int bench_main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const CommonArgs common = read_common(args, /*default_reps=*/10);
  const long long n = static_cast<long long>(args.get_count("n", 1024));
  const long long m = static_cast<long long>(args.get_count("m", 64));
  const long long cap =
      static_cast<long long>(args.get_count("max-rounds", 20000));
  args.finish();

  const std::vector<double> slacks = {0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9};
  const std::vector<std::pair<std::string, double>> protocols = {
      {"uniform", 0.5}, {"adaptive", 1.0}, {"admission", 1.0}};

  TablePrinter table({"protocol", "slack", "rounds_mean", "rounds_p95",
                      "rounds_max", "converged"});
  std::cout << "E6: slack sweep (n=" << n << ", m=" << m << ", cap=" << cap
            << " rounds, reps=" << common.reps << ")\n";

  for (const auto& [kind, lambda] : protocols) {
    for (const double slack : slacks) {
      const AggregatedRuns agg = aggregate_runs(
          common.seed ^ static_cast<std::uint64_t>(slack * 1e6), common.reps,
          [&, kind = kind, lambda = lambda](std::uint64_t seed) {
            return run_uniform_feasible_once(
                kind, lambda, static_cast<std::size_t>(n),
                static_cast<std::size_t>(m), slack, 1.0, seed,
                static_cast<std::uint64_t>(cap));
          });
      table.cell(kind)
          .cell(slack)
          .cell(agg.rounds.mean())
          .cell(agg.rounds_p95)
          .cell(agg.rounds_max)
          .cell(agg.converged_fraction)
          .end_row();
    }
  }

  emit(table, common);
  return 0;
}

int main(int argc, char** argv) { return run_bench(argc, argv, bench_main); }
