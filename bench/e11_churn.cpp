// E11 (Fig 8) — Re-convergence under churn.
//
// Claim validated: the protocols are self-stabilizing — after a batch of
// user departures/arrivals (or a resource outage), the system re-converges
// quickly, and the recovery time scales with the *churn size*, not with n.
// Each wave replaces a fraction of the users with fresh ones placed at
// random; the table reports rounds to re-convergence per wave.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"

using namespace qoslb;
using namespace qoslb::bench;

namespace {

/// Replaces `count` random users with fresh ones (thresholds redrawn from
/// the same [t_min, t_max] band, placed uniformly at random) and returns the
/// new instance plus an assignment carrying over every surviving user.
struct ChurnedWorld {
  Instance instance;
  std::vector<ResourceId> assignment;
};

ChurnedWorld churn(const Instance& old_instance,
                   const std::vector<ResourceId>& old_assignment,
                   std::size_t count, int t_min, int t_max, Xoshiro256& rng) {
  const std::size_t n = old_instance.num_users();
  std::vector<double> requirements(n);
  std::vector<ResourceId> assignment = old_assignment;
  for (UserId u = 0; u < n; ++u) requirements[u] = old_instance.requirement(u);

  std::vector<std::size_t> victims;
  sample_without_replacement(rng, n, count, victims);
  for (const std::size_t u : victims) {
    const int t = static_cast<int>(uniform_int(rng, t_min, t_max));
    requirements[u] = 1.0 / static_cast<double>(t);
    assignment[u] = static_cast<ResourceId>(
        uniform_u64_below(rng, old_instance.num_resources()));
  }
  std::vector<double> capacities(old_instance.num_resources());
  for (ResourceId r = 0; r < capacities.size(); ++r)
    capacities[r] = old_instance.capacity(r);
  return ChurnedWorld{Instance(std::move(capacities), std::move(requirements)),
                      std::move(assignment)};
}

}  // namespace

static int bench_main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const CommonArgs common = read_common(args, /*default_reps=*/5);
  const long long n = static_cast<long long>(args.get_count("n", 4096));
  const long long m = static_cast<long long>(args.get_count("m", 256));
  const long long waves = static_cast<long long>(args.get_count("waves", 6));
  const double slack = args.get_double("slack", 0.15);
  args.finish();

  const std::vector<double> churn_fractions = {0.01, 0.05, 0.2};
  // Threshold band matching make_uniform_feasible(slack, heterogeneity=1.5).
  const int load = static_cast<int>((n + m - 1) / m);
  const int t_min = static_cast<int>(std::ceil(load / (1.0 - slack)));
  const int t_max = static_cast<int>(std::ceil(1.5 * t_min));

  TablePrinter table({"protocol", "churn_frac", "wave", "rounds_mean",
                      "migrations_mean", "satisfied_frac"});
  std::cout << "E11: re-convergence under churn (n=" << n << ", m=" << m
            << ", slack=" << slack << ", reps=" << common.reps << ")\n";

  for (const std::string kind : {"adaptive", "admission"}) {
    for (const double frac : churn_fractions) {
      const auto churn_count = static_cast<std::size_t>(
          std::max(1.0, frac * static_cast<double>(n)));
      std::vector<RunningStat> wave_rounds(static_cast<std::size_t>(waves));
      std::vector<RunningStat> wave_migrations(static_cast<std::size_t>(waves));
      std::vector<RunningStat> wave_satisfied(static_cast<std::size_t>(waves));

      for (std::size_t rep = 0; rep < common.reps; ++rep) {
        Xoshiro256 rng(derive_seed(common.seed, rep * 1000 + churn_count));
        Instance instance = make_uniform_feasible(
            static_cast<std::size_t>(n), static_cast<std::size_t>(m), slack,
            1.5, rng);
        State state = State::random(instance, rng);
        ProtocolSpec spec;
        spec.kind = kind;
        auto protocol = make_protocol(spec);
        EngineConfig config;
        config.max_rounds = 100000;
        Engine(config).run(*protocol, state, rng);  // initial convergence

        for (long long wave = 0; wave < waves; ++wave) {
          std::vector<ResourceId> assignment(instance.num_users());
          for (UserId u = 0; u < instance.num_users(); ++u)
            assignment[u] = state.resource_of(u);
          ChurnedWorld world =
              churn(instance, assignment, churn_count, t_min, t_max, rng);
          instance = std::move(world.instance);
          state = State(instance, std::move(world.assignment));
          const EngineResult result = Engine(config).run(*protocol, state, rng);
          wave_rounds[wave].add(static_cast<double>(result.rounds));
          wave_migrations[wave].add(
              static_cast<double>(result.counters.migrations));
          wave_satisfied[wave].add(static_cast<double>(result.final_satisfied) /
                                   static_cast<double>(instance.num_users()));
        }
      }

      for (long long wave = 0; wave < waves; ++wave) {
        table.cell(kind)
            .cell(frac)
            .cell(wave)
            .cell(wave_rounds[wave].mean())
            .cell(wave_migrations[wave].mean())
            .cell(wave_satisfied[wave].mean())
            .end_row();
      }
    }
  }

  emit(table, common);
  return 0;
}

int main(int argc, char** argv) { return run_bench(argc, argv, bench_main); }
