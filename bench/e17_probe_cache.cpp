// E17 (Table 8) — Probe caching: message cost vs. staleness.
//
// Ablation of the information model: users consult a shared load cache and
// probe only entries older than `ttl` rounds. The sweep crosses ttl with the
// migration probability λ, because the two interact: under damping (λ=0.5)
// loads drift slowly, stale data is almost as good as fresh, and caching is
// a near-free ~4× message saving; undamped (λ=1) the whole herd acts on the
// same cached "free" signal, so staleness amplifies overshoot.
// The `uniform` kind (every user pays every probe) is the reference row per λ.

#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "core/protocols/cached_sampling.hpp"
#include "core/protocols/sampling.hpp"
#include "util/strings.hpp"
#include "rng/splitmix64.hpp"

using namespace qoslb;
using namespace qoslb::bench;

static int bench_main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const CommonArgs common = read_common(args, /*default_reps=*/10);
  const long long n = static_cast<long long>(args.get_count("n", 4096));
  const long long m = static_cast<long long>(args.get_count("m", 256));
  const double slack = args.get_double("slack", 0.15);
  args.finish();

  struct Config {
    std::string label;
    std::unique_ptr<Protocol> protocol;
  };
  std::vector<Config> configs;
  for (const double lambda : {0.5, 1.0}) {
    const std::string suffix = " λ=" + format_double(lambda, 2);
    configs.push_back({"uniform (no cache)" + suffix,
                       std::make_unique<SamplingProtocol>(
                           SamplingProtocol::Rule::kLambda, lambda)});
    for (const std::uint32_t ttl : {0u, 2u, 8u, 16u})
      configs.push_back({"cached ttl=" + std::to_string(ttl) + suffix,
                         std::make_unique<CachedSampling>(lambda, ttl)});
  }

  TablePrinter table({"config", "rounds_mean", "probes_mean", "messages_mean",
                      "migrations_mean", "converged"});
  std::cout << "E17: probe-cache staleness sweep (n=" << n << ", m=" << m
            << ", slack=" << slack << ", all-on-one start, reps="
            << common.reps << ")\n";

  for (const Config& config : configs) {
    RunningStat rounds, probes, messages, migrations;
    std::size_t converged = 0;
    for (std::size_t rep = 0; rep < common.reps; ++rep) {
      Xoshiro256 rng(derive_seed(common.seed, rep));
      const Instance instance = make_uniform_feasible(
          static_cast<std::size_t>(n), static_cast<std::size_t>(m), slack, 1.5,
          rng);
      State state = State::all_on(instance, 0);
      EngineConfig run_config;
      run_config.max_rounds = 50000;
      const EngineResult result =
          Engine(run_config).run(*config.protocol, state, rng);
      if (result.converged) ++converged;
      rounds.add(static_cast<double>(result.rounds));
      probes.add(static_cast<double>(result.counters.probes));
      messages.add(static_cast<double>(result.counters.messages()));
      migrations.add(static_cast<double>(result.counters.migrations));
    }
    table.cell(config.label)
        .cell(rounds.mean())
        .cell(probes.mean())
        .cell(messages.mean())
        .cell(migrations.mean())
        .cell(static_cast<double>(converged) / static_cast<double>(common.reps))
        .end_row();
  }

  emit(table, common);
  return 0;
}

int main(int argc, char** argv) { return run_bench(argc, argv, bench_main); }
