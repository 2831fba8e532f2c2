// E4 (Table 1) — Head-to-head protocol comparison across instance families.
//
// For four workload families (uniform-feasible, geometric QoS classes,
// Zipf-skewed demands, related/heterogeneous capacities) and every protocol
// in the registry, reports rounds, migrations, messages, and the final
// satisfied fraction. The expected shape: admission/adaptive converge in few
// rounds with modest message cost; undamped uniform needs luck; the
// QoS-oblivious Berenbrink baseline balances loads but leaves demanding
// users unsatisfied on skewed families; sequential best response needs ~n
// steps (its "rounds" are single moves).

#include <functional>
#include <iostream>

#include "bench_common.hpp"

using namespace qoslb;
using namespace qoslb::bench;

namespace {

struct Family {
  std::string name;
  std::function<Instance(Xoshiro256&)> build;
};

}  // namespace

static int bench_main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const CommonArgs common = read_common(args, /*default_reps=*/5);
  const long long n = static_cast<long long>(args.get_count("n", 2048));
  const long long m = static_cast<long long>(args.get_count("m", 128));
  args.finish();

  const auto sn = static_cast<std::size_t>(n);
  const auto sm = static_cast<std::size_t>(m);
  const std::vector<Family> families = {
      {"uniform-feasible",
       [&](Xoshiro256& rng) { return make_uniform_feasible(sn, sm, 0.4, 1.5, rng); }},
      {"qos-classes",
       [&](Xoshiro256&) { return make_qos_classes(sm, 4, 8, 0.3); }},
      {"zipf",
       [&](Xoshiro256& rng) { return make_zipf(sn, sm, 1.1, rng); }},
      {"related-capacities",
       [&](Xoshiro256& rng) { return make_related_capacities(sn, sm, 0.3, 3, rng); }},
  };

  const std::vector<std::pair<std::string, double>> protocols = {
      {"seq-br", 1.0},    {"uniform", 1.0},  {"uniform", 0.5},
      {"adaptive", 1.0},  {"admission", 1.0}, {"berenbrink", 1.0}};

  TablePrinter table({"family", "protocol", "rounds_mean", "migrations_mean",
                      "messages_mean", "satisfied_frac", "converged"});
  std::cout << "E4: protocol comparison (n=" << n << ", m=" << m
            << ", reps=" << common.reps << ", random start)\n";

  for (const Family& family : families) {
    for (const auto& [kind, lambda] : protocols) {
      const AggregatedRuns agg = aggregate_runs(
          common.seed ^ std::hash<std::string>{}(family.name + kind),
          common.reps, [&, kind = kind, lambda = lambda](std::uint64_t seed) {
            Xoshiro256 rng(seed);
            const Instance instance = family.build(rng);
            State state = State::random(instance, rng);
            ProtocolSpec spec;
            spec.kind = kind;
            spec.lambda = lambda;
            const auto protocol = make_protocol(spec);
            EngineConfig config;
            config.max_rounds = 30000;
            ReplicatedRun run;
            run.result = Engine(config).run(*protocol, state, rng);
            run.num_users = instance.num_users();
            return run;
          });
      const std::string label =
          kind == "uniform" ? (lambda == 1.0 ? "uniform(1.0)" : "uniform(0.5)")
                            : kind;
      table.cell(family.name)
          .cell(label)
          .cell(agg.rounds.mean())
          .cell(agg.migrations.mean())
          .cell(agg.messages.mean())
          .cell(agg.satisfied_fraction.mean())
          .cell(agg.converged_fraction)
          .end_row();
    }
  }

  emit(table, common);
  return 0;
}

int main(int argc, char** argv) { return run_bench(argc, argv, bench_main); }
