// E20 — Convergence of the loss-tolerant async protocol under injected
// faults.
//
// Claim validated: with timeouts, bounded exponential-backoff retries, and
// stale/duplicate suppression, the asynchronous admission protocol keeps
// driving feasible instances to full satisfaction under uniform message
// loss, duplication, and resource crash/recovery — at a message overhead
// that grows smoothly with the drop rate (no cliff), while the trusting
// realization deadlocks on the first lost GRANT. The table sweeps drop rate
// x crash count and reports the satisfied fraction, virtual convergence
// time, and the retry/timeout work the faults induced.
//
// A second sweep covers the synchronous sharded engine's deterministic
// resource churn (docs/faults.md): one resource fails mid-run and later
// recovers, and the rows report the graceful-degradation metrics — evicted
// users, the satisfied-fraction dip depth, and rounds back to the
// pre-failure baseline — per protocol.
//
// Knobs: --n, --m, --slack, --dup, --crash-len, --fail-round,
// --recover-round, plus the common --reps/--seed/--csv.

#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/async/async_protocols.hpp"
#include "core/engine.hpp"
#include "core/protocols/registry.hpp"
#include "rng/splitmix64.hpp"
#include "obs/clock.hpp"

using namespace qoslb;
using namespace qoslb::bench;

static int bench_main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const CommonArgs common = read_common(args, /*default_reps=*/10);
  const auto n = static_cast<std::size_t>(args.get_count("n", 800));
  const auto m = static_cast<std::size_t>(args.get_count("m", 40));
  const double slack = args.get_double("slack", 0.4);
  const double dup = args.get_double("dup", 0.05);
  const double crash_len = args.get_double("crash-len", 100.0);
  const std::uint64_t fail_round = args.get_count("fail-round", 20);
  const std::uint64_t recover_round = args.get_count("recover-round", 60);
  args.finish();

  const std::vector<double> drop_rates = {0.0, 0.05, 0.10, 0.20};
  const std::vector<int> crash_counts = {0, 1, 2};

  TablePrinter table({"drop", "crashes", "satisfied_frac", "quiesced_frac",
                      "vtime_mean", "events_mean", "messages_mean",
                      "retries_mean", "timeouts_mean", "faults_mean"});
  std::cout << "E20: async admission under fault injection (n=" << n
            << ", m=" << m << ", slack=" << slack << ", dup=" << dup
            << ", reps=" << common.reps << ")\n";

  BenchJson json("e20_faults");
  for (const double drop : drop_rates) {
    for (const int crashes : crash_counts) {
      RunningStat satisfied, quiesced, vtime, events, messages, retries,
          timeouts, faults;
      obs::Stopwatch cell_watch;
      for (std::size_t rep = 0; rep < common.reps; ++rep) {
        Xoshiro256 rng(derive_seed(common.seed, rep));
        const Instance instance =
            make_uniform_feasible(n, m, slack, 1.5, rng);
        EngineConfig config;
        config.seed = derive_seed(common.seed, 1000 + rep);
        config.random_start = false;  // force migration traffic
        if (drop > 0.0) config.faults.drop_all(drop);
        if (dup > 0.0) config.faults.dup_all(dup);
        // Staggered crash windows over the early convergence phase.
        for (int c = 0; c < crashes; ++c)
          config.faults.crash(static_cast<AgentId>(c % m), 5.0 + 10.0 * c,
                              5.0 + 10.0 * c + crash_len);
        const AsyncRunResult result = run_async_admission(instance, config);
        satisfied.add(static_cast<double>(result.satisfied) /
                      static_cast<double>(n));
        quiesced.add(result.hit_event_cap ? 0.0 : 1.0);
        vtime.add(result.virtual_time);
        events.add(static_cast<double>(result.events));
        messages.add(static_cast<double>(result.counters.messages()));
        retries.add(static_cast<double>(result.counters.retries));
        timeouts.add(static_cast<double>(result.counters.timeouts));
        faults.add(static_cast<double>(result.faults.total()));
      }
      const double cell_wall = cell_watch.seconds();
      JsonRow& row = json.add_row();
      row.field("drop", drop)
          .field("crashes", static_cast<long long>(crashes))
          .field("reps", static_cast<unsigned long long>(common.reps))
          .field("satisfied_frac", satisfied.mean())
          .field("quiesced_frac", quiesced.mean())
          .field("vtime_mean", vtime.mean())
          .field("events_mean", events.mean())
          .field("messages_mean", messages.mean())
          .field("retries_mean", retries.mean())
          .field("timeouts_mean", timeouts.mean())
          .field("faults_mean", faults.mean());
      // Async runs emit no trace rows, so sink time is identically zero —
      // the triple still goes out so rows line up with the traced benches.
      timing_fields(row, "", cell_wall, 0.0);
      table.cell(drop)
          .cell(static_cast<long long>(crashes))
          .cell(satisfied.mean())
          .cell(quiesced.mean())
          .cell(vtime.mean())
          .cell(events.mean())
          .cell(messages.mean())
          .cell(retries.mean())
          .cell(timeouts.mean())
          .cell(faults.mean())
          .end_row();
    }
  }

  emit(table, common);

  // ---- synchronous sharded churn: graceful degradation per protocol ----
  // A tight world (5% slack) so losing one of m resources genuinely dents
  // the satisfied fraction until the recovery event lands.
  const double churn_slack = 0.05;
  const std::vector<std::pair<std::string, double>> churn_protocols = {
      {"uniform", 0.5}, {"adaptive", 1.0}, {"admission", 1.0}};
  TablePrinter churn_table({"protocol", "fail_round", "recover_round",
                            "evicted_mean", "max_dip_depth_mean",
                            "recovery_rounds_mean", "rounds_mean",
                            "converged_frac"});
  std::cout << "E20b: sharded engine under deterministic resource churn "
               "(slack=" << churn_slack << ", fail@" << fail_round
            << ", recover@" << recover_round << ")\n";
  for (const auto& [kind, lambda] : churn_protocols) {
    RunningStat evicted, dip_depth, recovery_rounds, rounds, converged;
    obs::Stopwatch cell_watch;
    for (std::size_t rep = 0; rep < common.reps; ++rep) {
      Xoshiro256 rng(derive_seed(common.seed, 2000 + rep));
      const Instance instance =
          make_uniform_feasible(n, m, churn_slack, 1.5, rng);
      State state = State::all_on(instance, 0);
      ProtocolSpec spec;
      spec.kind = kind;
      spec.lambda = lambda;
      const auto protocol = make_protocol(spec);
      EngineConfig config;
      config.max_rounds = 4000;
      config.churn.fail(fail_round, 1).recover(recover_round, 1);
      const EngineResult result = Engine(config).run(*protocol, state, rng);
      evicted.add(static_cast<double>(result.churn.evicted));
      dip_depth.add(result.churn.max_dip_depth);
      recovery_rounds.add(static_cast<double>(result.churn.max_recovery_rounds));
      rounds.add(static_cast<double>(result.rounds));
      converged.add(result.converged ? 1.0 : 0.0);
    }
    const double cell_wall = cell_watch.seconds();
    JsonRow& row = json.add_row();
    row.field("protocol", kind)
        .field("fail_round", static_cast<unsigned long long>(fail_round))
        .field("recover_round", static_cast<unsigned long long>(recover_round))
        .field("reps", static_cast<unsigned long long>(common.reps))
        .field("evicted_mean", evicted.mean())
        .field("max_dip_depth_mean", dip_depth.mean())
        .field("recovery_rounds_mean", recovery_rounds.mean())
        .field("rounds_mean", rounds.mean())
        .field("converged_frac", converged.mean());
    timing_fields(row, "", cell_wall, 0.0);
    churn_table.cell(kind)
        .cell(static_cast<unsigned long long>(fail_round))
        .cell(static_cast<unsigned long long>(recover_round))
        .cell(evicted.mean())
        .cell(dip_depth.mean())
        .cell(recovery_rounds.mean())
        .cell(rounds.mean())
        .cell(converged.mean())
        .end_row();
  }
  emit(churn_table, common);

  json.write("BENCH_faults.json");
  return 0;
}

int main(int argc, char** argv) { return run_bench(argc, argv, bench_main); }
