// E23 — SoA round hot path: scan throughput, worker-pool scaling, and the
// cross-config equivalence matrix.
//
// Part 1 (workload "scan") measures the data-oriented round loop added with
// the SoA State (docs/performance.md): a steady-state instance where ~99% of
// users are satisfied (threshold 200, load ~100) and ~1% are infeasible
// (threshold 0 — they probe every round but can never emit a request), so a
// dense round is dominated by the branchless
// loads[assignment[u]] <= current_thresholds[u] scan over contiguous memory.
// The engine checks stability once before round 0, so the start must not be
// an equilibrium: one user is displaced to tilt two loads (99 / 101) and one
// threshold-100 user on the heavy resource holds a satisfying deviation it
// is overwhelmingly unlikely to sample (probability 1/m per round). With the
// periodic stability scan pushed out past the round cap, every run then
// executes exactly --rounds rounds; users_per_sec = n * rounds / seconds is
// the population scan rate. Rows cover dense and active modes for every
// requested thread count; the active rows expose per-round dispatch
// overhead directly (the active set is ~n/100).
//
// Part 2 (workload "equivalence") re-runs the uniform-sampling protocol on
// all three rate-model forms (uniform / matrix / bipartite, as in e24) at a
// fixed small scale across every thread count x engine mode and requires all
// final-assignment hashes to be bit-identical — the determinism contract of
// the per-(seed, round, user) Philox keying under the SoA layout, the
// persistent worker pool, and the prefix-sum shard commit. Any divergence
// makes the bench exit non-zero. (The pre-PR golden values themselves are
// pinned by tests/core_soa_test.cpp; here the cells are checked against each
// other so the gate also works at non-default scales.)
//
// Acceptance targets (ROADMAP): > 100M users/sec single-thread dense scan at
// n=1e6, and >= 3x at 8 threads on hardware that has them. Thresholds are
// enforced by the CI bench gate (bench/floors.json), conditioned on
// hardware_threads, not here.
//
// Knobs: --n, --m (default n/100), --rounds (round cap), --threads=1,2,4,8,
// plus the common --reps/--seed/--csv. Writes BENCH_soa.json. Timed cells
// are best-of-reps after one untimed warmup. --metrics-out=FILE attaches a
// metrics registry (with phase timing) to the Part 1 scan runs and writes
// the accumulated JSONL — the artifact the CI bench-smoke job feeds to
// qoslb-report.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"

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
  const auto n = static_cast<std::size_t>(args.get_count("n", 1000000));
  const auto m = static_cast<std::size_t>(args.get_count("m", 0));
  const std::uint64_t rounds_cap = args.get_count("rounds", 20);
  const auto thread_counts = args.get_count_list("threads", {1, 2, 4, 8});
  const std::string metrics_path = args.get_string("metrics-out", "");
  args.finish();
  obs::MetricsRegistry metrics;
  obs::SteadyClock telemetry_clock;
  const std::size_t resources = m != 0 ? m : std::max<std::size_t>(1, n / 100);
  const unsigned hardware_threads =
      std::max(1u, std::thread::hardware_concurrency());

  std::cout << "E23: SoA scan throughput + equivalence matrix (n=" << n
            << ", m=" << resources << ", rounds=" << rounds_cap
            << ", hardware threads=" << hardware_threads
            << ", reps=" << common.reps << ")\n";

  TablePrinter table({"workload", "model", "mode", "threads", "rounds",
                      "seconds_best", "users_per_sec", "speedup_vs_t1",
                      "hash", "matches_ref"});
  BenchJson json("e23_soa_scaling");

  // ---- Part 1: steady-state scan workload -------------------------------
  // Identical capacity 1.0; feasible users need q = 1/200 (threshold 200),
  // every 100th user q = 2.0 (threshold 0: permanently unsatisfied, probes
  // but never requests). A round-robin start levels loads at n/m = 100 <=
  // 200; displacing user 0 from resource 0 to resource 1 tilts them to
  // 99 / 101, and user 1 (threshold 100, sitting on the heavy resource 1)
  // is then unsatisfied *with* a satisfying deviation onto resource 0 — so
  // the engine's round-0 stability check does not shortcut the run, while
  // the odds of user 1 actually sampling resource 0 within the round cap
  // are 1/m per round (the workload stays a pure scan).
  {
    std::vector<double> requirements(n, 1.0 / 200.0);
    for (std::size_t u = 0; u < n; u += 100) requirements[u] = 2.0;
    requirements[1] = 1.0 / 100.0;
    const Instance instance =
        Instance::identical(resources, 1.0, std::move(requirements));
    std::vector<ResourceId> assignment(n);
    for (std::size_t u = 0; u < n; ++u)
      assignment[u] = static_cast<ResourceId>(u % resources);
    assignment[0] = 1;
    const State start(instance, std::move(assignment));

    const auto run_once = [&](EngineMode mode, std::size_t threads,
                              double& seconds, std::uint64_t& rounds) {
      State state = start;
      ProtocolSpec spec;
      spec.kind = "uniform";
      spec.lambda = 0.5;
      const auto protocol = make_protocol(spec);
      EngineConfig config;
      config.max_rounds = rounds_cap;
      // The scan instance is a satisfaction equilibrium by construction
      // (the unsatisfied users are infeasible everywhere); defer the
      // stability scan past the round cap so every run times exactly
      // max_rounds rounds of pure round-loop work.
      config.stability_check_period = 1'000'000'000;
      config.threads = threads;
      config.mode = mode;
      if (!metrics_path.empty()) {  // accumulates across cells and reps
        config.telemetry.metrics = &metrics;
        config.telemetry.clock = &telemetry_clock;
      }
      Xoshiro256 rng(common.seed);
      obs::Stopwatch watch;
      const EngineResult result = Engine(config).run(*protocol, state, rng);
      seconds = watch.seconds();
      rounds = result.rounds;
    };

    for (const std::string& mode_name :
         {std::string("dense"), std::string("active")}) {
      const EngineMode mode =
          mode_name == "dense" ? EngineMode::kDense : EngineMode::kActive;
      double t1_seconds = 0.0;
      for (const long long threads : thread_counts) {
        double best_seconds = 1e100;
        std::uint64_t rounds = 0;
        double seconds;
        run_once(mode, static_cast<std::size_t>(threads), seconds, rounds);
        for (std::size_t rep = 0; rep < common.reps; ++rep) {
          run_once(mode, static_cast<std::size_t>(threads), seconds, rounds);
          best_seconds = std::min(best_seconds, seconds);
        }
        if (threads == thread_counts.front()) t1_seconds = best_seconds;
        const double users_per_sec = static_cast<double>(rounds) *
                                     static_cast<double>(n) / best_seconds;
        const double speedup = t1_seconds / best_seconds;
        table.cell("scan")
            .cell("steady")
            .cell(mode_name)
            .cell(threads)
            .cell(static_cast<unsigned long long>(rounds))
            .cell(best_seconds, 5)
            .cell(users_per_sec)
            .cell(speedup)
            .cell("-")
            .cell("-")
            .end_row();
        json.add_row()
            .field("workload", "scan")
            .field("mode", mode_name)
            .field("threads", threads)
            .field("hardware_threads", static_cast<long long>(hardware_threads))
            .field("rounds", static_cast<unsigned long long>(rounds))
            .field("seconds", best_seconds)
            .field("users_per_sec", users_per_sec)
            .field("speedup_vs_t1", speedup);
      }
    }
  }

  // ---- Part 2: equivalence matrix ---------------------------------------
  // Fixed small scale (independent of --n: the matrix model is dense in
  // n x m) so the full model x mode x threads product stays cheap.
  bool deterministic = true;
  {
    const std::size_t n_eq = 20000;
    const std::size_t m_eq = 200;
    struct Model {
      std::string name;
      Instance instance;
    };
    Xoshiro256 gen_rng(common.seed);
    std::vector<Model> models;
    models.push_back(
        {"uniform", make_uniform_feasible(n_eq, m_eq, 0.5, 1.5, gen_rng)});
    models.push_back(
        {"matrix", make_zipf_rates(n_eq, m_eq, 0.2, 1.1, gen_rng)});
    models.push_back(
        {"bipartite", make_clustered_bipartite(n_eq, m_eq, 8, 2, 0.2, gen_rng)});

    for (const Model& model : models) {
      std::vector<ResourceId> worst(model.instance.num_users(), 0);
      if (model.instance.restricted())
        for (UserId u = 0; u < worst.size(); ++u)
          worst[u] = model.instance.reachable(u).front();
      const State start(model.instance, std::move(worst));

      std::uint64_t reference_hash = 0;
      bool have_reference = false;
      for (const std::string& mode_name :
           {std::string("dense"), std::string("active")}) {
        const EngineMode mode =
            mode_name == "dense" ? EngineMode::kDense : EngineMode::kActive;
        for (const long long threads : thread_counts) {
          State state = start;
          ProtocolSpec spec;
          spec.kind = "uniform";
          spec.lambda = 0.5;
          const auto protocol = make_protocol(spec);
          EngineConfig config;
          config.max_rounds = 24;
          config.threads = static_cast<std::size_t>(threads);
          config.mode = mode;
          Xoshiro256 rng(common.seed);
          Engine(config).run(*protocol, state, rng);
          const std::uint64_t hash = fnv1a_assignment(state);
          if (!have_reference) {
            reference_hash = hash;
            have_reference = true;
          }
          const bool matches = hash == reference_hash;
          deterministic = deterministic && matches;
          table.cell("equivalence")
              .cell(model.name)
              .cell(mode_name)
              .cell(threads)
              .cell("-")
              .cell("-")
              .cell("-")
              .cell("-")
              .cell(static_cast<unsigned long long>(hash))
              .cell(matches ? "yes" : "NO")
              .end_row();
          json.add_row()
              .field("workload", "equivalence")
              .field("model", model.name)
              .field("mode", mode_name)
              .field("threads", threads)
              .field("hardware_threads",
                     static_cast<long long>(hardware_threads))
              .field("assignment_hash", static_cast<unsigned long long>(hash))
              .field("matches_reference", matches ? 1LL : 0LL);
        }
      }
    }
  }

  emit(table, common);
  std::cout << (deterministic
                    ? "\ndeterminism: every model produced one final "
                      "assignment across all modes and thread counts\n"
                    : "\ndeterminism: FAILED — assignment hash diverged "
                      "across the equivalence matrix\n");
  json.write("BENCH_soa.json");
  if (!metrics_path.empty()) {
    std::ofstream metrics_out(metrics_path);
    if (!metrics_out) {
      std::cerr << "warning: cannot write " << metrics_path << '\n';
    } else {
      metrics.write_jsonl(metrics_out);
    }
  }
  return deterministic ? 0 : 1;
}

int main(int argc, char** argv) { return run_bench(argc, argv, bench_main); }
