// E7 (Table 2) — Equilibrium quality vs. the centralized optimum
// (empirical price of anarchy for satisfaction).
//
// Claim validated: satisfaction equilibria can be arbitrarily far from the
// welfare (here: satisfied-count) optimum. On small instances the exact
// flow-based optimizer (opt/satisfaction.hpp) provides ground truth; the
// table reports, per instance family and protocol, the mean satisfied count,
// the optimum, and their ratio. The deadlock family shows the unbounded-PoA
// construction: a balanced start on an overloaded instance is already stable
// with zero satisfied users, while the optimum satisfies m·T of them.

#include <functional>
#include <iostream>

#include "bench_common.hpp"
#include "opt/satisfaction.hpp"
#include "rng/splitmix64.hpp"

using namespace qoslb;
using namespace qoslb::bench;

namespace {

std::vector<int> thresholds_of(const Instance& inst) {
  std::vector<int> out(inst.num_users());
  for (UserId u = 0; u < inst.num_users(); ++u) out[u] = inst.threshold(u, 0);
  return out;
}

struct Family {
  std::string name;
  std::function<Instance(Xoshiro256&)> build;
  bool balanced_start;  // round-robin (deadlock-prone) vs random start
};

}  // namespace

static int bench_main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const CommonArgs common = read_common(args, /*default_reps=*/10);
  args.finish();

  // Sizes stay within the exact optimizer's guard (n <= 64, m <= 16;
  // partition enumeration).
  const std::vector<Family> families = {
      {"zipf(n=24,m=3)", [](Xoshiro256& rng) { return make_zipf(24, 3, 1.0, rng); },
       false},
      {"zipf(n=40,m=4)", [](Xoshiro256& rng) { return make_zipf(40, 4, 1.2, rng); },
       false},
      {"overloaded(n=48,m=4,x2)",
       [](Xoshiro256&) { return make_overloaded(48, 4, 2.0); }, false},
      {"overloaded-balanced-start",
       [](Xoshiro256&) { return make_overloaded(48, 4, 2.0); }, true},
      {"feasible(n=48,m=4)",
       [](Xoshiro256& rng) { return make_uniform_feasible(48, 4, 0.3, 1.5, rng); },
       false},
  };

  const std::vector<std::string> protocols = {"seq-br", "adaptive", "admission"};

  TablePrinter table({"family", "protocol", "satisfied_mean", "optimum_mean",
                      "ratio", "worst_ratio"});
  std::cout << "E7: satisfied count vs exact optimum (reps=" << common.reps
            << ")\n";

  for (const Family& family : families) {
    for (const std::string& kind : protocols) {
      RunningStat satisfied, optimum, ratio;
      double worst_ratio = 1.0;
      for (std::size_t rep = 0; rep < common.reps; ++rep) {
        const std::uint64_t seed =
            derive_seed(common.seed ^ std::hash<std::string>{}(family.name), rep);
        Xoshiro256 rng(seed);
        const Instance instance = family.build(rng);
        const int opt = max_satisfied_identical(
            thresholds_of(instance), static_cast<int>(instance.num_resources()));
        State state = family.balanced_start ? State::round_robin(instance)
                                            : State::random(instance, rng);
        ProtocolSpec spec;
        spec.kind = kind;
        spec.lambda = 0.5;
        const auto protocol = make_protocol(spec);
        EngineConfig config;
        config.max_rounds = 20000;
        const EngineResult result = Engine(config).run(*protocol, state, rng);
        satisfied.add(static_cast<double>(result.final_satisfied));
        optimum.add(static_cast<double>(opt));
        const double r = opt == 0
                             ? 1.0
                             : static_cast<double>(result.final_satisfied) /
                                   static_cast<double>(opt);
        ratio.add(r);
        worst_ratio = std::min(worst_ratio, r);
      }
      table.cell(family.name)
          .cell(kind)
          .cell(satisfied.mean())
          .cell(optimum.mean())
          .cell(ratio.mean())
          .cell(worst_ratio)
          .end_row();
    }
  }

  emit(table, common);
  return 0;
}

int main(int argc, char** argv) { return run_bench(argc, argv, bench_main); }
