// E22 — Active-set round engine: round cost O(unsatisfied), not O(n).
//
// The PR 3 tentpole claim: once most users are satisfied, a dense round still
// scans all n users while an active round touches only the unsatisfied set,
// so the convergence *tail* — where |active| << n — speeds up by orders of
// magnitude. This bench measures exactly that tail:
//
//   1. A probe run records the unsatisfied trajectory and locates the round
//      where the active set first drops below --tail-frac of n (default
//      0.5%).
//   2. Per engine mode (dense, active), a fresh realization runs the head
//      (up to that round, untimed for the comparison) and then the timed
//      tail continuation to convergence. Both modes consume the caller RNG
//      identically, so they execute the same realization; the final
//      assignments are hash-compared and the bench fails on mismatch.
//      It also fails when either mode's tail is empty (zero rounds).
//
// Acceptance target (ISSUE 3): >= 10x lower tail wall time for the active
// mode at n=1e6, m=1e3. Results go to BENCH_active.json.
//
// Knobs: --n, --m, --protocol (an [active-set] kind), --lambda, --threads,
// --rounds (safety cap), --tail-frac, --slack, --het (threshold spread),
// --graph (nbr-* kinds), plus the common --reps/--seed/--csv. Telemetry:
// --trace-out=FILE attaches a JSONL trace sink, --metrics-out=FILE a
// metrics registry, and --decisions-out=FILE a sampled decision sink
// (--trace-sample=K, default 1024) to the timed runs; sink time is measured
// separately and subtracted, so the reported sim seconds stay comparable
// either way.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "net/generators.hpp"
#include "obs/clock.hpp"
#include "obs/decision_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"

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

struct ModeResult {
  double head_seconds = 0.0;
  double tail_wall_seconds = 0.0;
  double tail_sink_seconds = 0.0;
  double tail_sim_seconds = 1e100;  // best over reps (wall minus sink time)
  std::uint64_t tail_rounds = 0;
  std::uint64_t total_rounds = 0;
  bool converged = false;
  std::uint64_t hash = 0;
};

}  // namespace

static int bench_main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const CommonArgs common = read_common(args, /*default_reps=*/3);
  const auto n = static_cast<std::size_t>(args.get_count("n", 1000000));
  const auto m = static_cast<std::size_t>(args.get_count("m", 1000));
  const std::string kind = args.get_string("protocol", "uniform");
  const double lambda = args.get_double("lambda", 0.05);
  const auto threads = static_cast<std::size_t>(args.get_count("threads", 1));
  const std::uint64_t rounds_cap = args.get_count("rounds", 4096);
  const double tail_frac = args.get_double("tail-frac", 0.005);
  // The defaults pin the regime the tentpole is about: light damping and a
  // small slack give a long straggler phase whose active set is far below
  // the tail cut, so dense rounds are almost pure wasted scan there.
  const double slack = args.get_double("slack", 0.05);
  const double het = args.get_double("het", 1.0);
  const std::string graph_kind = args.get_string("graph", "torus");
  const std::string trace_path = args.get_string("trace-out", "");
  const std::string metrics_path = args.get_string("metrics-out", "");
  const std::string decisions_path = args.get_string("decisions-out", "");
  const std::uint64_t trace_sample = args.get_count("trace-sample", 1024);
  args.finish();

  // Optional telemetry on the timed tail runs. Sinks are shared across reps
  // and modes (one JSONL stream with a begin/end block per run, one metrics
  // registry accumulating over all runs); the determinism contract keeps the
  // realizations bit-identical with or without them.
  obs::MetricsRegistry metrics;
  obs::SteadyClock telemetry_clock;
  std::ofstream trace_file;
  std::optional<obs::JsonlTraceSink> trace_sink;
  if (!trace_path.empty()) {
    trace_file.open(trace_path);
    if (!trace_file) throw std::runtime_error("cannot write " + trace_path);
    trace_sink.emplace(trace_file);
  }
  std::ofstream decisions_file;
  std::optional<obs::JsonlDecisionSink> decisions_sink;
  if (!decisions_path.empty()) {
    decisions_file.open(decisions_path);
    if (!decisions_file)
      throw std::runtime_error("cannot write " + decisions_path);
    decisions_sink.emplace(decisions_file);
  }
  const bool telemetry_on = !trace_path.empty() || !metrics_path.empty() ||
                            !decisions_path.empty();

  Xoshiro256 gen_rng(common.seed);
  const Instance instance = make_uniform_feasible(n, m, slack, het, gen_rng);

  // Resource graph for the nbr-* kinds (ignored by the global-sampling
  // protocols). The sparse default matters: on a sparse topology the last
  // overload pockets drain by *local* diffusion, which is precisely the
  // long, small-active-set tail this bench is about — global sampling
  // instead ends in a satisfaction equilibrium within a few rounds of the
  // tail cut.
  Graph graph;
  if (graph_kind == "complete") {
    graph = make_complete(static_cast<Vertex>(m));
  } else if (graph_kind == "torus") {
    std::size_t rows = 1;
    for (std::size_t d = 1; d * d <= m; ++d)
      if (m % d == 0) rows = d;
    graph = make_torus(static_cast<Vertex>(rows),
                       static_cast<Vertex>(m / rows));
  } else if (graph_kind == "ring") {
    graph = make_ring(static_cast<Vertex>(m));
  } else {
    throw std::invalid_argument("unknown --graph '" + graph_kind +
                                "' (complete|torus|ring)");
  }

  const auto make = [&] {
    ProtocolSpec spec;
    spec.kind = kind;
    spec.lambda = lambda;
    spec.graph = &graph;
    return make_protocol(spec);
  };

  // Probe: find where the tail starts. record_trajectory gives the
  // unsatisfied count after every round; the tail is everything from the
  // first round with <= tail_frac * n unsatisfied users.
  std::uint64_t tail_start = 0;
  std::uint64_t probe_rounds = 0;
  {
    State state = State::all_on(instance, 0);
    const auto protocol = make();
    EngineConfig config;
    config.max_rounds = rounds_cap;
    config.threads = threads;
    config.record_trajectory = true;
    Xoshiro256 rng(common.seed);
    const EngineResult result = Engine(config).run(*protocol, state, rng);
    probe_rounds = result.rounds;
    const auto cut = static_cast<std::uint32_t>(tail_frac * static_cast<double>(n));
    tail_start = result.rounds;  // degenerate: never reaches the tail regime
    for (std::size_t r = 0; r < result.unsatisfied_trajectory.size(); ++r) {
      if (result.unsatisfied_trajectory[r] <= cut) {
        tail_start = r + 1;  // trajectory[r] is the state *after* round r
        break;
      }
    }
  }

  std::cout << "E22: active-set convergence tail (n=" << n << ", m=" << m
            << ", protocol=" << kind << ", threads=" << threads
            << ", reps=" << common.reps << ")\n"
            << "probe: converged in " << probe_rounds << " rounds, tail (<= "
            << tail_frac * 100 << "% unsatisfied) starts after round "
            << tail_start << "\n";

  // One realization = head run (round cap tail_start) + tail continuation on
  // the same state. Each Engine::run draws the caller RNG exactly once, so
  // the (head, tail) seed pair — and hence the whole realization — is the
  // same for both modes; only the round iteration strategy differs.
  const auto run_mode = [&](EngineMode mode) {
    ModeResult out;
    for (std::size_t rep = 0; rep < common.reps; ++rep) {
      State state = State::all_on(instance, 0);
      const auto protocol = make();
      Xoshiro256 rng(common.seed);
      EngineConfig config;
      config.threads = threads;
      config.mode = mode;
      config.max_rounds = tail_start;
      obs::Stopwatch head_watch;
      const EngineResult head = Engine(config).run(*protocol, state, rng);
      const double head_seconds = head_watch.seconds();
      config.max_rounds = rounds_cap;
      if (telemetry_on) {  // telemetry on the timed tail only
        config.telemetry.metrics = metrics_path.empty() ? nullptr : &metrics;
        config.telemetry.sink = trace_sink ? &*trace_sink : nullptr;
        config.telemetry.decisions =
            decisions_sink ? &*decisions_sink : nullptr;
        config.telemetry.decision_sample = trace_sample;
        config.telemetry.clock = &telemetry_clock;
      }
      obs::Stopwatch tail_watch;
      const EngineResult tail = Engine(config).run(*protocol, state, rng);
      const double tail_wall = tail_watch.seconds();
      const double tail_sink = tail.telemetry.sink_seconds();
      if (tail_wall - tail_sink < out.tail_sim_seconds) {
        out.head_seconds = head_seconds;
        out.tail_wall_seconds = tail_wall;
        out.tail_sink_seconds = tail_sink;
        out.tail_sim_seconds = tail_wall - tail_sink;
      }
      out.tail_rounds = tail.rounds;
      out.total_rounds = head.rounds + tail.rounds;
      out.converged = tail.converged;
      out.hash = fnv1a_assignment(state);
    }
    return out;
  };

  const ModeResult dense = run_mode(EngineMode::kDense);
  const ModeResult active = run_mode(EngineMode::kActive);
  const bool identical = dense.hash == active.hash;
  // A run that converges before the tail cut times no tail at all: the
  // speedup would be a ratio of two near-zero timings, so it is a failure.
  const bool empty_tail = dense.tail_rounds == 0 || active.tail_rounds == 0;
  // Speedup compares simulation cost alone — with a sink attached, the wall
  // ratio would be dominated by sink I/O, not by the round-cost claim.
  const double tail_speedup = dense.tail_sim_seconds / active.tail_sim_seconds;

  TablePrinter table({"mode", "threads", "rounds", "tail_rounds",
                      "head_seconds", "tail_sim_s", "tail_sink_s",
                      "tail_speedup", "converged", "hash"});
  BenchJson json("e22_active_set");
  const auto emit_row = [&](const std::string& mode, const ModeResult& r,
                            double speedup) {
    table.cell(mode)
        .cell(static_cast<long long>(threads))
        .cell(static_cast<unsigned long long>(r.total_rounds))
        .cell(static_cast<unsigned long long>(r.tail_rounds))
        .cell(r.head_seconds, 5)
        .cell(r.tail_sim_seconds, 5)
        .cell(r.tail_sink_seconds, 5)
        .cell(speedup)
        .cell(r.converged ? "yes" : "no")
        .cell(static_cast<unsigned long long>(r.hash))
        .end_row();
    JsonRow& row = json.add_row();
    row.field("mode", mode)
        .field("n", static_cast<unsigned long long>(n))
        .field("m", static_cast<unsigned long long>(m))
        .field("protocol", kind)
        .field("threads", static_cast<long long>(threads))
        .field("rounds", static_cast<unsigned long long>(r.total_rounds))
        .field("tail_start", static_cast<unsigned long long>(tail_start))
        .field("tail_rounds", static_cast<unsigned long long>(r.tail_rounds));
    timing_fields(row, "head_", r.head_seconds, 0.0);  // head is never traced
    timing_fields(row, "tail_", r.tail_wall_seconds, r.tail_sink_seconds);
    row.field("tail_speedup_vs_dense", speedup)
        .field("converged", r.converged)
        .field("assignment_hash", static_cast<unsigned long long>(r.hash));
  };
  emit_row("dense", dense, 1.0);
  emit_row("active", active, tail_speedup);
  emit(table, common);

  std::cout << "\ntail speedup (dense/active): " << tail_speedup << "x\n"
            << (identical ? "equivalence: dense and active produced the same "
                            "final assignment\n"
                          : "equivalence: FAILED — dense and active final "
                            "assignments differ\n");
  if (empty_tail)
    std::cout << "tail: FAILED — the run converged before the tail cut, so "
                 "no tail round was timed; raise --tail-frac or --n\n";
  json.write("BENCH_active.json");
  if (!metrics_path.empty()) {
    std::ofstream metrics_out(metrics_path);
    if (!metrics_out) {
      std::cerr << "warning: cannot write " << metrics_path << '\n';
    } else {
      metrics.write_jsonl(metrics_out);
    }
  }
  return identical && !empty_tail ? 0 : 1;
}

int main(int argc, char** argv) { return run_bench(argc, argv, bench_main); }
