// E5 (Fig 4) — Herding/oscillation vs. migration-probability damping.
//
// Claim validated: on the adversarial two-resource herding instance, the
// undamped optimistic protocol (λ=1 with enough probes to always see the
// other resource) oscillates and essentially never converges; damping λ < 1
// restores convergence, with an interior sweet spot (too little damping
// keeps herding, too much slows progress). The adaptive and admission
// protocols converge without any tuned λ — the ablation DESIGN.md §6 calls
// out.

#include <functional>
#include <iostream>

#include "bench_common.hpp"
#include "util/strings.hpp"

using namespace qoslb;
using namespace qoslb::bench;

static int bench_main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const CommonArgs common = read_common(args, /*default_reps=*/10);
  const long long n = static_cast<long long>(args.get_count("n", 1000));
  const long long cap =
      static_cast<long long>(args.get_count("max-rounds", 2000));
  args.finish();

  struct Config {
    std::string label;
    std::string kind;
    double lambda;
  };
  std::vector<Config> configs;
  for (const double lambda : {1.0, 0.9, 0.7, 0.5, 0.3, 0.1, 0.05})
    configs.push_back({"uniform λ=" + format_double(lambda, 3), "uniform", lambda});
  configs.push_back({"adaptive", "adaptive", 1.0});
  configs.push_back({"admission", "admission", 1.0});

  TablePrinter table({"config", "converged_frac", "rounds_mean", "rounds_p95",
                      "migrations_mean"});
  std::cout << "E5: damping sweep on the herding instance (n=" << n
            << ", 2 resources, threshold 3n/5, all-on-one start, cap="
            << cap << " rounds, reps=" << common.reps << ")\n";

  const Instance instance = make_herding(static_cast<std::size_t>(n));
  for (const Config& config : configs) {
    const AggregatedRuns agg = aggregate_runs(
        common.seed ^ std::hash<std::string>{}(config.label), common.reps,
        [&](std::uint64_t seed) {
          Xoshiro256 rng(seed);
          State state = State::all_on(instance, 0);
          ProtocolSpec spec;
          spec.kind = config.kind;
          spec.lambda = config.lambda;
          spec.probes = 8;  // enough probes to always spot the other resource
          const auto protocol = make_protocol(spec);
          EngineConfig run_config;
          run_config.max_rounds = static_cast<std::uint64_t>(cap);
          ReplicatedRun run;
          run.result = Engine(run_config).run(*protocol, state, rng);
          run.num_users = instance.num_users();
          return run;
        });
    table.cell(config.label)
        .cell(agg.converged_fraction)
        .cell(agg.rounds.mean())
        .cell(agg.rounds_p95)
        .cell(agg.migrations.mean())
        .end_row();
  }

  emit(table, common);
  return 0;
}

int main(int argc, char** argv) { return run_bench(argc, argv, bench_main); }
