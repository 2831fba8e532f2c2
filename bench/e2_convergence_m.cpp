// E2 (Fig 2) — Convergence rounds vs. resource count m at fixed n.
//
// Claim validated: at a fixed population and slack, the convergence time of
// the sampling protocols is essentially flat in m (each unsatisfied user
// needs to *find* room, and the per-round success probability is governed by
// the fraction of resources with room, not their absolute number).

#include <iostream>

#include "bench_common.hpp"

using namespace qoslb;
using namespace qoslb::bench;

static int bench_main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const CommonArgs common = read_common(args, /*default_reps=*/10);
  const long long n = static_cast<long long>(args.get_count("n", 4096));
  const auto resource_counts = args.get_count_list("m", {16, 32, 64, 128, 256, 512});
  const double slack = args.get_double("slack", 0.15);
  args.finish();

  const std::vector<std::pair<std::string, double>> protocols = {
      {"uniform", 0.5}, {"adaptive", 1.0}, {"admission", 1.0}};

  TablePrinter table({"protocol", "n", "m", "rounds_mean", "rounds_sem",
                      "messages_mean", "converged"});
  std::cout << "E2: convergence rounds vs m (n=" << n << ", slack=" << slack
            << ", reps=" << common.reps << ")\n";

  for (const auto& [kind, lambda] : protocols) {
    for (const long long m : resource_counts) {
      const AggregatedRuns agg = aggregate_runs(
          common.seed ^ static_cast<std::uint64_t>(m * 7919), common.reps,
          [&, kind = kind, lambda = lambda](std::uint64_t seed) {
            return run_uniform_feasible_once(kind, lambda,
                                             static_cast<std::size_t>(n),
                                             static_cast<std::size_t>(m), slack,
                                             1.5, seed);
          });
      table.cell(kind)
          .cell(n)
          .cell(m)
          .cell(agg.rounds.mean())
          .cell(agg.rounds.sem())
          .cell(agg.messages.mean())
          .cell(agg.converged_fraction)
          .end_row();
    }
  }

  emit(table, common);
  return 0;
}

int main(int argc, char** argv) { return run_bench(argc, argv, bench_main); }
