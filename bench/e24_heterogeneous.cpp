// E24 — Heterogeneous rate models: throughput and cross-config equivalence.
//
// Drives the RateModel generalization (docs/heterogeneity.md) through the
// sharded engine on all three rate-model forms:
//
//   uniform    make_uniform_feasible — the rate(u,r)==1 fast path
//   matrix     make_zipf_rates — dense per-(user, resource) rates, unrestricted
//   bipartite  make_clustered_bipartite — restricted assignment, reachable-set
//              keyed sampling
//
// For each form the bench runs the uniform-sampling protocol from the same
// adversarial start across every thread count × engine mode (dense and active)
// and verifies the final-assignment hash is bit-identical to the 1-thread
// dense reference — the determinism contract for heterogeneous instances.
// Any divergence makes the bench exit non-zero, so the CI bench-smoke job
// doubles as an equivalence gate. The per-model users/sec columns quantify
// the cost of rate lookups relative to the uniform fast path.
//
// Each model's generator call is timed too (build_seconds): the bipartite
// one builds the CSR access graph that restricted runs start from. Every row
// records n, m, seed, reps and the round cap it ran with.
//
// Knobs: --n, --m (default n/100), --rounds (round cap), --threads=1,2,4,8,
// plus the common --reps/--seed/--csv. Writes BENCH_hetero.json.

#include <algorithm>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "obs/clock.hpp"

using namespace qoslb;
using namespace qoslb::bench;

namespace {

std::uint64_t fnv1a_assignment(const State& state) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (UserId u = 0; u < state.num_users(); ++u) {
    std::uint64_t value = state.resource_of(u);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFF;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

}  // namespace

static int bench_main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const CommonArgs common = read_common(args, /*default_reps=*/3);
  const auto n = static_cast<std::size_t>(args.get_count("n", 200000));
  const auto m = static_cast<std::size_t>(args.get_count("m", 0));
  const std::uint64_t rounds_cap = args.get_count("rounds", 40);
  const auto thread_counts = args.get_count_list("threads", {1, 2, 4, 8});
  args.finish();
  for (const long long threads : thread_counts)
    if (threads < 0)
      throw std::invalid_argument("--threads must be non-negative, got " +
                                  std::to_string(threads));
  const std::size_t resources = m != 0 ? m : std::max<std::size_t>(8, n / 100);

  std::cout << "E24: heterogeneous rate models (n=" << n << ", m=" << resources
            << ", round cap=" << rounds_cap << ", reps=" << common.reps
            << ")\n";

  TablePrinter table({"model", "build_s", "mode", "threads", "rounds",
                      "seconds_best", "users_per_sec", "hash", "matches_ref"});
  BenchJson json("e24_heterogeneous");

  struct Model {
    std::string name;
    Instance instance;
    double build_seconds;
  };
  Xoshiro256 gen_rng(common.seed);
  std::vector<Model> models;
  const auto build = [&](const char* name, const auto& generate) {
    obs::Stopwatch watch;
    Instance instance = generate();
    models.push_back({name, std::move(instance), watch.seconds()});
  };
  build("uniform", [&] {
    return make_uniform_feasible(n, resources, 0.5, 1.5, gen_rng);
  });
  build("matrix",
        [&] { return make_zipf_rates(n, resources, 0.2, 1.1, gen_rng); });
  build("bipartite", [&] {
    return make_clustered_bipartite(n, resources, 8, 2, 0.2, gen_rng);
  });

  bool deterministic = true;
  for (const Model& model : models) {
    // Adversarial restricted-safe start: every user on its first reachable
    // resource (all-on-0 for unrestricted models), so runs measure recovery
    // work instead of starting satisfied. Every run copies this state, so
    // each (mode, threads) cell replays the exact same world.
    std::vector<ResourceId> worst(model.instance.num_users(), 0);
    if (model.instance.restricted())
      for (UserId u = 0; u < worst.size(); ++u)
        worst[u] = model.instance.reachable(u).front();
    const State start(model.instance, std::move(worst));

    const auto run_once = [&](EngineMode mode, std::size_t threads,
                              double& seconds, std::uint64_t& rounds,
                              std::uint64_t& hash) {
      State state = start;
      ProtocolSpec spec;
      spec.kind = "uniform";
      spec.lambda = 0.5;
      const auto protocol = make_protocol(spec);
      EngineConfig config;
      config.max_rounds = rounds_cap;
      config.threads = threads;
      config.mode = mode;
      Xoshiro256 rng(common.seed);
      obs::Stopwatch watch;
      const EngineResult result = Engine(config).run(*protocol, state, rng);
      seconds = watch.seconds();
      rounds = result.rounds;
      hash = fnv1a_assignment(state);
    };

    std::uint64_t reference_hash = 0;
    bool have_reference = false;
    for (const std::string& mode_name : {std::string("dense"),
                                         std::string("active")}) {
      const EngineMode mode =
          mode_name == "dense" ? EngineMode::kDense : EngineMode::kActive;
      for (const long long threads : thread_counts) {
        double best_seconds = 1e100;
        std::uint64_t rounds = 0, hash = 0;
        for (std::size_t rep = 0; rep < common.reps; ++rep) {
          double seconds;
          run_once(mode, static_cast<std::size_t>(threads), seconds, rounds,
                   hash);
          best_seconds = std::min(best_seconds, seconds);
        }
        if (!have_reference) {
          reference_hash = hash;
          have_reference = true;
        }
        const bool matches = hash == reference_hash;
        deterministic = deterministic && matches;
        const double users_per_sec = static_cast<double>(rounds) *
                                     static_cast<double>(n) / best_seconds;
        table.cell(model.name)
            .cell(model.build_seconds, 3)
            .cell(mode_name)
            .cell(threads)
            .cell(static_cast<unsigned long long>(rounds))
            .cell(best_seconds, 5)
            .cell(users_per_sec)
            .cell(static_cast<unsigned long long>(hash))
            .cell(matches ? "yes" : "NO")
            .end_row();
        json.add_row()
            .field("model", model.name)
            .field("n", static_cast<unsigned long long>(n))
            .field("m", static_cast<unsigned long long>(resources))
            .field("seed", static_cast<unsigned long long>(common.seed))
            .field("reps", static_cast<unsigned long long>(common.reps))
            .field("round_cap", static_cast<unsigned long long>(rounds_cap))
            .field("build_seconds", model.build_seconds)
            .field("mode", mode_name)
            .field("threads", threads)
            .field("rounds", static_cast<unsigned long long>(rounds))
            .field("seconds", best_seconds)
            .field("users_per_sec", users_per_sec)
            .field("assignment_hash", static_cast<unsigned long long>(hash))
            .field("matches_reference", matches ? 1LL : 0LL);
      }
    }
  }

  emit(table, common);
  std::cout << (deterministic
                    ? "\ndeterminism: every rate model produced the same final "
                      "assignment across all modes and thread counts\n"
                    : "\ndeterminism: FAILED — assignment hash diverged from "
                      "the 1-thread dense reference\n");
  json.write("BENCH_hetero.json");
  return deterministic ? 0 : 1;
}

int main(int argc, char** argv) { return run_bench(argc, argv, bench_main); }
