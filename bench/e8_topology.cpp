// E8 (Fig 6) — Network-restricted sampling across topologies.
//
// Two regimes, both reported per topology:
//
//  start=random, slack 0.15: users are scattered and must fix local
//  overloads. Rounds to convergence grow mildly as the topology gets worse
//  (complete fastest; ring slowest) — restricted visibility lengthens the
//  search for free slots.
//
//  start=all-on-one, slack 0.5: the adversarial concentrated start. Because
//  satisfied users never move, a filled neighbor becomes a *barrier*: under
//  poor expansion most of the blob is trapped in a neighborhood-local
//  equilibrium and the satisfied fraction collapses with the topology's
//  expansion (complete ≈ 1, ring ≈ degree·T/n). This locality trap is the
//  qualitative price of restricting the probe set.

#include <functional>
#include <iostream>

#include "bench_common.hpp"
#include "net/generators.hpp"
#include "net/properties.hpp"

using namespace qoslb;
using namespace qoslb::bench;

static int bench_main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const CommonArgs common = read_common(args, /*default_reps=*/10);
  const long long n = static_cast<long long>(args.get_count("n", 1024));
  args.finish();

  constexpr Vertex kResources = 64;
  Xoshiro256 topo_rng(13);
  struct Topology {
    std::string name;
    Graph graph;
  };
  const std::vector<Topology> topologies = {
      {"complete", make_complete(kResources)},
      {"hypercube-6", make_hypercube(6)},
      {"torus-8x8", make_torus(8, 8)},
      {"random-4-regular", make_random_regular(kResources, 4, topo_rng)},
      {"small-world(k=2,b=.2)", make_small_world(kResources, 2, 0.2, topo_rng)},
      {"ring", make_ring(kResources)},
      {"barbell-30-4", make_barbell(30, 4)},
  };

  struct Regime {
    std::string name;
    double slack;
    bool concentrated;
  };
  const std::vector<Regime> regimes = {
      {"random-start", 0.15, false},
      {"concentrated", 0.5, true},
  };

  TablePrinter table({"regime", "topology", "diameter", "degree", "rounds_mean",
                      "rounds_p95", "satisfied_frac", "converged"});
  std::cout << "E8: neighborhood-restricted admission on m=64 topologies (n="
            << n << ", reps=" << common.reps << ")\n";

  for (const Regime& regime : regimes) {
    for (const Topology& topology : topologies) {
      const AggregatedRuns agg = aggregate_runs(
          common.seed ^ std::hash<std::string>{}(regime.name + topology.name),
          common.reps, [&](std::uint64_t seed) {
            Xoshiro256 rng(seed);
            const Instance instance = make_uniform_feasible(
                static_cast<std::size_t>(n), kResources, regime.slack, 1.0, rng);
            State state = regime.concentrated ? State::all_on(instance, 0)
                                              : State::random(instance, rng);
            ProtocolSpec spec;
            spec.kind = "nbr-admission";
            spec.graph = &topology.graph;
            const auto protocol = make_protocol(spec);
            EngineConfig config;
            config.max_rounds = 100000;
            ReplicatedRun run;
            run.result = Engine(config).run(*protocol, state, rng);
            run.num_users = instance.num_users();
            return run;
          });
      table.cell(regime.name)
          .cell(topology.name)
          .cell(static_cast<long long>(diameter(topology.graph)))
          .cell(static_cast<long long>(topology.graph.degree(0)))
          .cell(agg.rounds.mean())
          .cell(agg.rounds_p95)
          .cell(agg.satisfied_fraction.mean())
          .cell(agg.converged_fraction)
          .end_row();
    }
  }

  emit(table, common);
  return 0;
}

int main(int argc, char** argv) { return run_bench(argc, argv, bench_main); }
