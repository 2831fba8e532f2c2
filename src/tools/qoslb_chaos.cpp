// qoslb-chaos — deterministic kill/restore harness (docs/faults.md).
//
// For every protocol × thread-count × engine-mode combination the harness
// runs an uninterrupted baseline, captures checkpoints at the --kill round
// boundaries, round-trips each checkpoint through the SnapshotV1 text
// format on disk, resumes the run from the restored checkpoint, and diffs
// the continuation against the baseline: final state hash, round count,
// every counter, satisfaction, and the churn degradation metrics must all
// be bit-identical. Any divergence is reported and the exit code is 1.
//
//   qoslb-chaos --n=100000 --m=64 --kill=1,5,25 --fail=3:10 --recover=3:40
//               --threads=1,2,4,8 --modes=dense,active --check-every=8
//               --out=chaos-out
//
// Options:
//   --n, --m, --seed      world size and master seed (uniform feasible family)
//   --slack               capacity headroom of the generated world (default
//                         0.15 — tight enough that failures visibly dip)
//   --rate-model          uniform (default) | matrix | bipartite: the world's
//                         rate model (docs/heterogeneity.md). matrix uses
//                         make_zipf_rates, bipartite make_clustered_bipartite;
//                         non-uniform worlds start from State::random because
//                         all-on-0 may be unreachable under restriction
//   --protocols           CSV of sharded protocol kinds, or "all" (default)
//   --threads             CSV of worker counts (default 1,2,4,8)
//   --modes               CSV from {dense,active} (default both)
//   --rounds              round cap per run (default 2000)
//   --shard-size          users per shard (default 256 so small runs shard)
//   --kill=R1,R2,...      checkpoint/kill round boundaries (default 1,5,25)
//   --fail=R:ROUND,...    churn plan: fail resource R at round ROUND
//   --recover=R:ROUND,... churn plan: recover resource R at round ROUND
//   --check-every=K       State::check_invariants() audit period (default 8)
//   --out=DIR             snapshot + report directory (default chaos-out)
//
// The report (DIR/invariant-report.txt) carries one line per verified
// restore plus the per-combo baseline summary, and is uploaded as a CI
// artifact by the chaos-smoke job.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/generators.hpp"
#include "core/protocols/registry.hpp"
#include "core/snapshot.hpp"
#include "net/generators.hpp"
#include "tools/list_specs.hpp"
#include "util/args.hpp"
#include "util/strings.hpp"

using namespace qoslb;

namespace {

struct ChaosKind {
  std::string kind;
  double lambda;
};

std::vector<ChaosKind> parse_protocols(const std::string& spec) {
  const std::vector<ChaosKind> all = {
      {"uniform", 0.5},      {"adaptive", 1.0},      {"admission", 1.0},
      {"nbr-uniform", 0.5},  {"nbr-admission", 1.0}, {"berenbrink", 1.0},
  };
  if (spec == "all") return all;
  std::vector<ChaosKind> out;
  for (const std::string& kind : split(spec, ',')) {
    if (kind.empty()) continue;
    bool known = false;
    for (const ChaosKind& candidate : all) {
      if (candidate.kind == kind) {
        out.push_back(candidate);
        known = true;
        break;
      }
    }
    if (!known)
      throw std::invalid_argument("--protocols: unknown sharded kind '" +
                                  kind + "'");
  }
  if (out.empty()) throw std::invalid_argument("--protocols selected nothing");
  return out;
}

EngineMode parse_mode(const std::string& name) {
  if (name == "dense") return EngineMode::kDense;
  if (name == "active") return EngineMode::kActive;
  throw std::invalid_argument("unknown engine mode '" + name +
                              "' (dense|active)");
}

/// Appends one line per field of T's (keyword, member) list that differs
/// between the baseline and the resumed value.
template <class T>
void diff_fields(const std::string& prefix, const T& base, const T& resumed,
                 std::vector<std::string>& out) {
  T::for_each_field(
      [&](const char* name, const auto& x, const auto& y) {
        if (x != y)
          out.push_back(prefix + name + " baseline=" + std::to_string(x) +
                        " resumed=" + std::to_string(y));
      },
      base, resumed);
}

/// Field-by-field result diff; empty result means bit-identical.
std::vector<std::string> diff_results(const EngineResult& base,
                                      const EngineResult& resumed) {
  std::vector<std::string> out;
  diff_fields("", base.counters, resumed.counters, out);
  const auto check_u64 = [&](const char* name, std::uint64_t x,
                             std::uint64_t y) {
    if (x != y)
      out.push_back(std::string(name) + " baseline=" + std::to_string(x) +
                    " resumed=" + std::to_string(y));
  };
  check_u64("result.rounds", base.rounds, resumed.rounds);
  check_u64("final_satisfied", base.final_satisfied, resumed.final_satisfied);
  check_u64("converged", base.converged ? 1 : 0, resumed.converged ? 1 : 0);
  diff_fields("churn.", base.churn, resumed.churn, out);
  return out;
}

int run_chaos(ArgParser& args) {
  const auto n = static_cast<std::size_t>(args.get_count("n", 4096));
  const auto m = static_cast<std::size_t>(args.get_count("m", 32));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double slack = args.get_double("slack", 0.15);
  const std::vector<ChaosKind> kinds =
      parse_protocols(args.get_string("protocols", "all"));
  const std::vector<long long> thread_list =
      args.get_count_list("threads", {1, 2, 4, 8});
  const std::string modes_spec = args.get_string("modes", "dense,active");
  const auto max_rounds = args.get_count("rounds", 2000);
  const auto shard_size =
      static_cast<std::size_t>(args.get_count("shard-size", 256));
  const std::vector<std::uint64_t> kill_rounds =
      parse_kill_spec(args.get_string("kill", "1,5,25"));
  const std::string fail_spec = args.get_string("fail", "");
  const std::string recover_spec = args.get_string("recover", "");
  const auto check_every =
      static_cast<std::uint32_t>(args.get_count("check-every", 8));
  const std::string out_dir = args.get_string("out", "chaos-out");
  const std::string rate_model = args.get_string("rate-model", "uniform");
  args.finish();

  if (rate_model != "uniform" && rate_model != "matrix" &&
      rate_model != "bipartite")
    throw std::invalid_argument("unknown --rate-model '" + rate_model +
                                "' (uniform|matrix|bipartite)");

  if (kill_rounds.empty())
    throw std::invalid_argument("--kill must name at least one round");

  const ChurnPlan plan = parse_churn_specs(fail_spec, recover_spec);
  plan.validate(m);

  std::vector<std::size_t> thread_counts;
  for (const long long threads : thread_list)
    thread_counts.push_back(static_cast<std::size_t>(threads));
  std::vector<EngineMode> modes;
  std::vector<std::string> mode_names;
  for (const std::string& item : split(modes_spec, ','))
    if (!item.empty()) {
      modes.push_back(parse_mode(item));
      mode_names.push_back(item);
    }

  std::filesystem::create_directories(out_dir);
  std::ofstream report(out_dir + "/invariant-report.txt");
  if (!report)
    throw std::runtime_error("cannot open report in --out '" + out_dir + "'");

  const Graph ring = make_ring(static_cast<Vertex>(m));
  std::size_t restores = 0, skipped = 0, divergences = 0;

  for (const ChaosKind& kind : kinds) {
    for (std::size_t mode_idx = 0; mode_idx < modes.size(); ++mode_idx) {
      for (const std::size_t threads : thread_counts) {
        const std::string combo = kind.kind + " mode=" + mode_names[mode_idx] +
                                  " threads=" + std::to_string(threads);

        // World + baseline run (uninterrupted, capturing checkpoints).
        Xoshiro256 world_rng(seed);
        const Instance instance =
            rate_model == "matrix"
                ? make_zipf_rates(n, m, slack, 1.1, world_rng)
            : rate_model == "bipartite"
                ? make_clustered_bipartite(n, m, 8, 2, slack, world_rng)
                : make_uniform_feasible(n, m, slack, 1.5, world_rng);
        State state = instance.rate_model().is_uniform()
                          ? State::all_on(instance, 0)
                          : State::random(instance, world_rng);
        ProtocolSpec spec;
        spec.kind = kind.kind;
        spec.lambda = kind.lambda;
        spec.graph = &ring;
        const auto protocol = make_protocol(spec);

        EngineConfig config;
        config.max_rounds = max_rounds;
        config.threads = threads;
        config.mode = modes[mode_idx];
        config.shard_size = shard_size;
        config.seed = seed;
        config.churn = plan;
        config.invariant_check_period = check_every;
        std::vector<SnapshotV1> snapshots;
        config.snapshot_rounds = kill_rounds;
        config.snapshot_sink = [&snapshots](const SnapshotV1& snapshot) {
          snapshots.push_back(snapshot);
        };
        Xoshiro256 run_rng(seed);
        const EngineResult baseline =
            Engine(config).run(*protocol, state, run_rng);
        const std::uint64_t baseline_hash = state_hash(state);
        state.check_invariants();

        report << "baseline " << combo << " rounds=" << baseline.rounds
               << " converged=" << (baseline.converged ? "yes" : "no")
               << " satisfied=" << baseline.final_satisfied
               << " hash=" << baseline_hash
               << " evicted=" << baseline.churn.evicted
               << " max_dip_depth=" << baseline.churn.max_dip_depth
               << " recovery_rounds=" << baseline.churn.max_recovery_rounds
               << '\n';
        skipped += kill_rounds.size() - snapshots.size();

        // Kill/restore each checkpoint through the on-disk format.
        EngineConfig resume_config = config;
        resume_config.snapshot_rounds.clear();
        resume_config.snapshot_sink = nullptr;
        for (const SnapshotV1& snapshot : snapshots) {
          const std::string path =
              out_dir + "/" + kind.kind + "_" + mode_names[mode_idx] + "_t" +
              std::to_string(threads) + "_r" +
              std::to_string(snapshot.next_round) + ".snap";
          {
            std::ofstream file(path);
            if (!file)
              throw std::runtime_error("cannot write snapshot '" + path + "'");
            write_snapshot(file, snapshot);
          }
          std::ifstream file(path);
          if (!file)
            throw std::runtime_error("cannot reopen snapshot '" + path + "'");
          const SnapshotV1 restored = read_snapshot(file);

          const Instance resumed_instance = restored.make_instance();
          State resumed_state = restored.make_state(resumed_instance);
          const auto resumed_protocol = make_protocol(spec);
          const EngineResult resumed = Engine(resume_config)
                                           .resume(*resumed_protocol, restored,
                                                   resumed_state);
          resumed_state.check_invariants();
          ++restores;

          std::vector<std::string> diffs = diff_results(baseline, resumed);
          const std::uint64_t resumed_hash = state_hash(resumed_state);
          if (resumed_hash != baseline_hash)
            diffs.push_back("state hash baseline=" +
                            std::to_string(baseline_hash) + " resumed=" +
                            std::to_string(resumed_hash));
          if (diffs.empty()) {
            report << "restore " << combo << " kill=" << snapshot.next_round
                   << " OK hash=" << resumed_hash << '\n';
          } else {
            ++divergences;
            report << "restore " << combo << " kill=" << snapshot.next_round
                   << " DIVERGED\n";
            for (const std::string& diff : diffs) {
              report << "  " << diff << '\n';
              std::cerr << "qoslb-chaos: " << combo
                        << " kill=" << snapshot.next_round << ": " << diff
                        << '\n';
            }
          }
        }
      }
    }
  }

  report << "summary restores=" << restores << " skipped=" << skipped
         << " divergences=" << divergences << '\n';
  std::cout << "qoslb-chaos: " << restores << " kill/restore cycles, "
            << skipped << " skipped (run ended before the kill round), "
            << divergences << " divergences; report in " << out_dir
            << "/invariant-report.txt\n";
  return divergences == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    ArgParser args(argc, argv);
    return run_chaos(args);
  } catch (const std::exception& error) {
    std::cerr << "qoslb-chaos: " << error.what() << '\n';
    return 2;
  }
}
