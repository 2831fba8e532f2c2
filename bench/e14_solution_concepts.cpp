// E14 (Table 6) — Satisfaction equilibria vs. quality Nash equilibria.
//
// Same instances, two solution concepts. Satisfaction dynamics (P2–P4) stop
// as soon as everyone clears their threshold; quality dynamics
// (core/dynamics) keep migrating until no strict improvement exists. The
// table quantifies the trade-off the model predicts: quality Nash gives
// higher minimum quality and perfect balance but pays for it in migrations
// and rounds; satisfaction dynamics stop much earlier at "good enough".

#include <functional>
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "core/dynamics/quality_game.hpp"
#include "core/potential.hpp"
#include "rng/splitmix64.hpp"

using namespace qoslb;
using namespace qoslb::bench;

namespace {

double min_quality(const State& state) {
  double worst = state.quality_of(0);
  for (UserId u = 1; u < state.num_users(); ++u)
    worst = std::min(worst, state.quality_of(u));
  return worst;
}

}  // namespace

static int bench_main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const CommonArgs common = read_common(args, /*default_reps=*/10);
  const long long n = static_cast<long long>(args.get_count("n", 1024));
  const long long m = static_cast<long long>(args.get_count("m", 64));
  const double slack = args.get_double("slack", 0.3);
  args.finish();

  struct Dynamic {
    std::string label;
    std::function<std::unique_ptr<Protocol>()> build;
  };
  const std::vector<Dynamic> dynamics = {
      {"admission (satisfaction)",
       [] {
         ProtocolSpec spec;
         spec.kind = "admission";
         return make_protocol(spec);
       }},
      {"adaptive (satisfaction)",
       [] {
         ProtocolSpec spec;
         spec.kind = "adaptive";
         return make_protocol(spec);
       }},
      {"quality-br (Nash)",
       [] { return std::make_unique<QualityBestResponse>(); }},
      {"quality-sampling (Nash)",
       [] { return std::make_unique<QualitySampling>(); }},
  };

  TablePrinter table({"dynamic", "rounds_mean", "migrations_mean",
                      "min_quality_mean", "spread_mean", "satisfied_frac",
                      "potential_mean"});
  std::cout << "E14: solution concepts on identical feasible instances (n="
            << n << ", m=" << m << ", slack=" << slack
            << ", all-on-one start, reps=" << common.reps << ")\n";

  for (const Dynamic& dynamic : dynamics) {
    RunningStat rounds, migrations, min_q, spread, satisfied, potential;
    for (std::size_t rep = 0; rep < common.reps; ++rep) {
      Xoshiro256 rng(derive_seed(common.seed, rep));
      const Instance instance = make_uniform_feasible(
          static_cast<std::size_t>(n), static_cast<std::size_t>(m), slack, 1.0,
          rng);
      State state = State::all_on(instance, 0);
      const auto protocol = dynamic.build();
      EngineConfig config;
      config.max_rounds = 200000;
      const EngineResult result = Engine(config).run(*protocol, state, rng);
      rounds.add(static_cast<double>(result.rounds));
      migrations.add(static_cast<double>(result.counters.migrations));
      min_q.add(min_quality(state));
      spread.add(static_cast<double>(state.max_load() - state.min_load()));
      satisfied.add(static_cast<double>(result.final_satisfied) /
                    static_cast<double>(instance.num_users()));
      potential.add(rosenthal_potential(state));
    }
    table.cell(dynamic.label)
        .cell(rounds.mean())
        .cell(migrations.mean())
        .cell(min_q.mean(), 5)
        .cell(spread.mean())
        .cell(satisfied.mean())
        .cell(potential.mean())
        .end_row();
  }

  emit(table, common);
  return 0;
}

int main(int argc, char** argv) { return run_bench(argc, argv, bench_main); }
