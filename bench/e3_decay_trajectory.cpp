// E3 (Fig 3) — Per-round decay of the unsatisfied population.
//
// Claim validated: under the damped/gated protocols the number of
// unsatisfied users decays geometrically (each trajectory row reports the
// per-round ratio u_{t}/u_{t-1}; a roughly constant ratio < 1 over the bulk
// of the run is the geometric-decay signature the convergence proofs give).

#include <iostream>

#include "bench_common.hpp"
#include "obs/trace_sink.hpp"

using namespace qoslb;
using namespace qoslb::bench;

static int bench_main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const CommonArgs common = read_common(args, /*default_reps=*/1);
  const long long n = static_cast<long long>(args.get_count("n", 4096));
  const long long m = static_cast<long long>(args.get_count("m", 256));
  const double slack = args.get_double("slack", 0.15);
  args.finish();

  const std::vector<std::pair<std::string, double>> protocols = {
      {"uniform", 0.5}, {"adaptive", 1.0}, {"admission", 1.0}};

  TablePrinter table(
      {"protocol", "round", "unsatisfied", "decay_ratio", "migrations"});
  std::cout << "E3: unsatisfied-count trajectory (n=" << n << ", m=" << m
            << ", slack=" << slack << ", all-on-one start)\n";

  for (const auto& [kind, lambda] : protocols) {
    Xoshiro256 rng(common.seed);
    const Instance instance = make_uniform_feasible(
        static_cast<std::size_t>(n), static_cast<std::size_t>(m), slack, 1.5, rng);
    State state = State::all_on(instance, 0);
    ProtocolSpec spec;
    spec.kind = kind;
    spec.lambda = lambda;
    const auto protocol = make_protocol(spec);
    // Per-round rows come from the engine's trace sink; period 1 keeps the
    // legacy check-every-round semantics.
    obs::MemoryTraceSink sink;
    EngineConfig config;
    config.max_rounds = 10000;
    config.stability_check_period = 1;
    config.telemetry.sink = &sink;
    Engine(config).run(*protocol, state, rng);
    const auto& records = sink.rows();
    for (std::size_t i = 0; i < records.size(); ++i) {
      const double ratio =
          i == 0 || records[i - 1].unsatisfied == 0
              ? 1.0
              : static_cast<double>(records[i].unsatisfied) /
                    static_cast<double>(records[i - 1].unsatisfied);
      table.cell(protocol->name())
          .cell(static_cast<long long>(records[i].round))
          .cell(static_cast<long long>(records[i].unsatisfied))
          .cell(ratio)
          .cell(static_cast<long long>(records[i].migrations))
          .end_row();
    }
  }

  emit(table, common);
  return 0;
}

int main(int argc, char** argv) { return run_bench(argc, argv, bench_main); }
