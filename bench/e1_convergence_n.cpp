// E1 (Fig 1) — Convergence rounds vs. population size n.
//
// Claim validated: on feasible uniform-QoS instances with constant slack and
// constant load factor n/m, the damped/gated sampling protocols converge in
// a number of rounds that grows logarithmically in n. The bench sweeps n over
// powers of two, aggregates replications, and reports an OLS fit of
// rounds = a + b·log2(n) per protocol (r² near 1 with stable b is the
// logarithmic-growth signature; a power-law fit exponent near 0 corroborates).

#include <iostream>
#include <stdexcept>

#include "bench_common.hpp"
#include "stats/regression.hpp"

using namespace qoslb;
using namespace qoslb::bench;

static int bench_main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const CommonArgs common = read_common(args, /*default_reps=*/10);
  const auto sizes = args.get_count_list("sizes", {256, 512, 1024, 2048, 4096, 8192});
  const auto load_factor =
      static_cast<long long>(args.get_count("load-factor", 16));
  if (load_factor == 0)
    throw std::invalid_argument("--load-factor must be positive, got 0");
  const double slack = args.get_double("slack", 0.15);
  args.finish();

  const std::vector<std::pair<std::string, double>> protocols = {
      {"uniform", 0.5}, {"adaptive", 1.0}, {"admission", 1.0}};

  TablePrinter table({"protocol", "n", "m", "rounds_mean", "rounds_sem",
                      "rounds_p95", "migrations_mean", "messages_mean",
                      "converged"});
  std::cout << "E1: convergence rounds vs n (slack=" << slack
            << ", n/m=" << load_factor << ", reps=" << common.reps << ")\n";

  for (const auto& [kind, lambda] : protocols) {
    std::vector<double> xs, ys;
    for (const long long n : sizes) {
      const std::size_t m =
          static_cast<std::size_t>(std::max<long long>(1, n / load_factor));
      const AggregatedRuns agg = aggregate_runs(
          common.seed ^ static_cast<std::uint64_t>(n), common.reps,
          [&, kind = kind, lambda = lambda](std::uint64_t seed) {
            return run_uniform_feasible_once(kind, lambda,
                                             static_cast<std::size_t>(n), m,
                                             slack, 1.5, seed);
          });
      table.cell(kind)
          .cell(n)
          .cell(static_cast<long long>(m))
          .cell(agg.rounds.mean())
          .cell(agg.rounds.sem())
          .cell(agg.rounds_p95)
          .cell(agg.migrations.mean())
          .cell(agg.messages.mean())
          .cell(agg.converged_fraction)
          .end_row();
      xs.push_back(static_cast<double>(n));
      ys.push_back(agg.rounds.mean());
    }
    const LinearFit log_fit = fit_log2(xs, ys);
    std::cout << "fit[" << kind << "]: rounds ~ " << log_fit.intercept << " + "
              << log_fit.slope << "*log2(n), r2=" << log_fit.r_squared << '\n';
  }

  emit(table, common);
  return 0;
}

int main(int argc, char** argv) { return run_bench(argc, argv, bench_main); }
