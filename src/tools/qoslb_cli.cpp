// qoslb — command-line driver for ad-hoc experiments.
//
//   qoslb --mode=run    --family=uniform --protocol=admission --n=4096 ...
//   qoslb --mode=trace  --family=uniform --protocol=adaptive  --n=1024 ...
//   qoslb --mode=async  --n=2000 --m=100 --jitter=0.5
//   qoslb --mode=open   --m=64 --rho=0.9 --rounds=3000
//
// Modes:
//   run    one replicated configuration; prints the aggregate row.
//   trace  single run; prints the per-round trajectory as CSV.
//          --load=FILE replays a world saved by --mode=gen.
//   async  asynchronous (DES) admission run; prints event statistics.
//   open   open-system run; prints violation metrics.
//   gen    generate an instance + start state to --out (io format).
//
// Shared options: --seed, --reps (run mode), --csv, --threads (run mode),
// --engine-mode=dense|active (run mode; active iterates only the unsatisfied
// set, bit-identical for protocols marked [active-set]).
//
// Heterogeneous rates (run/trace/gen modes, docs/heterogeneity.md):
// --rate-model=uniform|matrix|bipartite selects the rate model; matrix uses
// make_zipf_rates (--rate-exponent), bipartite make_clustered_bipartite
// (--clusters, --extra-edges). Non-uniform rate models build their own
// instance family (combining with --family is an error); restricted
// instances additionally reject --start=all0 and protocols not marked
// [restricted] in --list-protocols.
//
// Robustness (run mode, docs/faults.md): --fail=R:ROUND,... and
// --recover=R:ROUND,... schedule deterministic mid-run resource churn;
// --check-every=K audits State::check_invariants() every K rounds. With a
// churn plan the run prints an extra churn summary line (degradation
// metrics aggregated over the replications).
// `qoslb --list-protocols` prints every registered protocol kind with a
// one-line description ([active-set] marks active-set-capable kinds) and
// exits.
//
// Telemetry (run/trace/async modes, docs/observability.md):
//   --metrics-out=FILE   write the run's metrics registry as JSONL
//   --trace-out=FILE     write per-round trace rows as JSONL
//   --decisions-out=FILE write sampled decision/span/diag events as JSONL
//   --trace-sample=K     keep 1-in-K users in the decision stream (hash of
//                        (seed, user), so the sample is thread/mode
//                        invariant; default 1 = every user)
//   --herding-factor=X   flag rounds where one resource's in-migrations
//                        exceed X times its drain (default 4)
//   --perf               record hardware counters per engine phase into the
//                        metrics registry (Linux perf_event_open; degrades
//                        to a warning where unavailable)
//   --report=FILE        after the run, analyze the written artifacts with
//                        the qoslb-report passes and write Markdown here
//   --progress[=...]     log progress through QOSLB_INFO every
//                        --progress-every rounds (default 100)
//   --log-level=LEVEL    debug|info|warn|error|off (global; default warn)
// Telemetry never changes the run: assignments and counters are
// bit-identical with the flags on or off.

#include <algorithm>
#include <fstream>
#include <limits>
#include <optional>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/engine.hpp"
#include "core/io/instance_io.hpp"
#include "core/experiment.hpp"
#include "core/generators.hpp"
#include "core/open/open_system.hpp"
#include "core/protocols/registry.hpp"
#include "net/generators.hpp"
#include "obs/clock.hpp"
#include "obs/decision_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/trace_sink.hpp"
#include "tools/list_specs.hpp"
#include "tools/report/report.hpp"
#include "util/args.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

using namespace qoslb;

namespace {

/// CLI-side telemetry wiring: owns the registry, file streams, sinks, and
/// the injected wall clock. Filled in place (the tee keeps pointers into
/// this object, so it must not move).
struct TelemetryOptions {
  std::string metrics_path;
  std::string trace_path;
  std::string decisions_path;
  std::string report_path;
  std::uint64_t trace_sample = 1;
  double herding_factor = 4.0;
  bool enabled = false;

  obs::MetricsRegistry metrics;
  obs::SteadyClock clock;
  std::ofstream trace_file;
  std::optional<obs::JsonlTraceSink> trace_sink;
  std::optional<obs::ProgressTraceSink> progress_sink;
  obs::TeeTraceSink tee;
  std::ofstream decisions_file;
  std::optional<obs::JsonlDecisionSink> decisions_sink;
  std::optional<obs::PerfCounters> perf;
  bool has_rows = false;  // any row-consuming sink attached
};

void read_telemetry(ArgParser& args, TelemetryOptions& io) {
  io.metrics_path = args.get_string("metrics-out", "");
  io.trace_path = args.get_string("trace-out", "");
  io.decisions_path = args.get_string("decisions-out", "");
  io.report_path = args.get_string("report", "");
  const long long trace_sample = args.get_int("trace-sample", 1);
  if (trace_sample < 1)
    throw std::runtime_error("--trace-sample must be at least 1");
  io.trace_sample = static_cast<std::uint64_t>(trace_sample);
  io.herding_factor = args.get_double("herding-factor", 4.0);
  if (io.herding_factor <= 0.0)
    throw std::runtime_error("--herding-factor must be positive");
  const bool progress = args.get_flag("progress");
  const auto progress_every = args.get_count("progress-every", 100);
  if (!io.trace_path.empty()) {
    io.trace_file.open(io.trace_path);
    if (!io.trace_file)
      throw std::runtime_error("cannot open --trace-out '" + io.trace_path +
                               "'");
    io.trace_sink.emplace(io.trace_file);
    io.tee.add(&*io.trace_sink);
    io.has_rows = true;
  }
  if (!io.decisions_path.empty()) {
    io.decisions_file.open(io.decisions_path);
    if (!io.decisions_file)
      throw std::runtime_error("cannot open --decisions-out '" +
                               io.decisions_path + "'");
    io.decisions_sink.emplace(io.decisions_file);
  }
  if (args.get_flag("perf")) io.perf.emplace();
  if (progress) {
    // --progress implies info verbosity (the reports go through QOSLB_INFO).
    if (Log::level() > LogLevel::kInfo) Log::set_level(LogLevel::kInfo);
    io.progress_sink.emplace(progress_every);
    io.tee.add(&*io.progress_sink);
    io.has_rows = true;
  }
  io.enabled = io.has_rows || !io.metrics_path.empty() ||
               io.decisions_sink.has_value() || io.perf.has_value();
}

/// Points config.telemetry at the wired-up sinks. The clock rides along
/// whenever telemetry is on so phase gauges come for free.
void apply_telemetry(TelemetryOptions& io, EngineConfig& config) {
  if (!io.enabled) return;
  if (!io.metrics_path.empty()) config.telemetry.metrics = &io.metrics;
  if (io.has_rows) config.telemetry.sink = &io.tee;
  if (io.decisions_sink.has_value()) {
    config.telemetry.decisions = &*io.decisions_sink;
    config.telemetry.decision_sample = io.trace_sample;
    config.telemetry.herding_factor = io.herding_factor;
  }
  if (io.perf.has_value()) config.telemetry.perf = &*io.perf;
  config.telemetry.clock = &io.clock;
}

void finish_telemetry(TelemetryOptions& io) {
  if (!io.metrics_path.empty()) {
    std::ofstream out(io.metrics_path);
    if (!out)
      throw std::runtime_error("cannot open --metrics-out '" +
                               io.metrics_path + "'");
    io.metrics.write_jsonl(out);
    QOSLB_INFO << "wrote " << io.metrics.size() << " metrics to "
               << io.metrics_path;
  }
  if (io.report_path.empty()) return;
  // Close the artifact streams before the report passes re-read them.
  if (io.trace_file.is_open()) io.trace_file.close();
  if (io.decisions_file.is_open()) io.decisions_file.close();
  report::Report analysis;
  if (!io.metrics_path.empty()) report::ingest_file(io.metrics_path, analysis);
  if (!io.trace_path.empty()) report::ingest_file(io.trace_path, analysis);
  if (!io.decisions_path.empty())
    report::ingest_file(io.decisions_path, analysis);
  std::ofstream out(io.report_path);
  if (!out)
    throw std::runtime_error("cannot open --report '" + io.report_path + "'");
  out << report::render_markdown(analysis);
  QOSLB_INFO << "wrote report to " << io.report_path;
  // The run itself stays usable when detectors fire — the standalone
  // qoslb-report tool is the gating entry point; here we just surface it.
  if (report::exit_code(analysis) != 0) {
    QOSLB_WARN << "report: " << analysis.total_findings() << " findings, "
               << analysis.schema_issues.size() << " schema issues — see "
               << io.report_path;
  }
}

Instance build_family(const std::string& family, std::size_t n, std::size_t m,
                      double slack, Xoshiro256& rng) {
  if (family == "uniform") return make_uniform_feasible(n, m, slack, 1.5, rng);
  if (family == "classes") return make_qos_classes(m, 4, 8, slack);
  if (family == "zipf") return make_zipf(n, m, 1.1, rng);
  if (family == "related") return make_related_capacities(n, m, slack, 3, rng);
  if (family == "overloaded") return make_overloaded(n, m, 2.0);
  if (family == "herding") return make_herding(n);
  throw std::invalid_argument(
      "unknown --family '" + family +
      "' (uniform|classes|zipf|related|overloaded|herding)");
}

/// Heterogeneous-rate options (docs/heterogeneity.md). A non-uniform
/// --rate-model replaces the --family generator with its own construction,
/// so combining the two is rejected loudly rather than silently ignored.
struct RateModelOptions {
  std::string model = "uniform";
  double exponent = 1.1;    // --rate-exponent (matrix: Zipf class skew)
  std::size_t clusters = 8; // --clusters      (bipartite: home clusters)
  std::size_t extra = 2;    // --extra-edges   (bipartite: remote edges/user)
};

RateModelOptions read_rate_model(ArgParser& args) {
  RateModelOptions rates;
  rates.model = args.get_string("rate-model", "uniform");
  rates.exponent = args.get_double("rate-exponent", 1.1);
  rates.clusters = static_cast<std::size_t>(args.get_count("clusters", 8));
  rates.extra = static_cast<std::size_t>(args.get_count("extra-edges", 2));
  return rates;
}

Instance build_instance(const std::string& family, const RateModelOptions& rates,
                        std::size_t n, std::size_t m, double slack,
                        Xoshiro256& rng) {
  if (rates.model == "uniform") return build_family(family, n, m, slack, rng);
  if (family != "uniform")
    throw std::invalid_argument(
        "--rate-model=" + rates.model +
        " builds its own instance family; drop --family=" + family);
  if (rates.model == "matrix")
    return make_zipf_rates(n, m, slack, rates.exponent, rng);
  if (rates.model == "bipartite")
    return make_clustered_bipartite(n, m, rates.clusters, rates.extra, slack,
                                    rng);
  throw std::invalid_argument("unknown --rate-model '" + rates.model +
                              "' (uniform|matrix|bipartite)");
}

State build_start(const std::string& start, const Instance& instance,
                  Xoshiro256& rng) {
  if (start == "all0" && instance.restricted())
    throw std::invalid_argument(
        "--start=all0 places every user on resource 0, but the instance is "
        "restricted (some users cannot reach it); use --start=random or "
        "--start=round-robin");
  if (start == "all0") return State::all_on(instance, 0);
  if (start == "random") return State::random(instance, rng);
  if (start == "round-robin") return State::round_robin(instance);
  throw std::invalid_argument("unknown --start '" + start +
                              "' (all0|random|round-robin)");
}

int mode_run(ArgParser& args) {
  const auto n = static_cast<std::size_t>(args.get_count("n", 4096));
  const auto m = static_cast<std::size_t>(args.get_count("m", 256));
  const double slack = args.get_double("slack", 0.15);
  const std::string family = args.get_string("family", "uniform");
  const std::string kind = args.get_string("protocol", "admission");
  const double lambda = args.get_double("lambda", 0.5);
  const std::uint64_t probes = args.get_count("probes", 1);
  constexpr int kMaxProbes = std::numeric_limits<int>::max();
  if (probes < 1 || probes > static_cast<std::uint64_t>(kMaxProbes))
    throw std::invalid_argument("--probes must be in [1, " +
                                std::to_string(kMaxProbes) + "], got " +
                                std::to_string(probes));
  const std::string start = args.get_string("start", "all0");
  const auto reps = static_cast<std::size_t>(args.get_count("reps", 10));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const auto max_rounds = args.get_count("max-rounds", 1 << 20);
  const auto threads = static_cast<std::size_t>(args.get_count("threads", 1));
  const std::string engine_mode = args.get_string("engine-mode", "dense");
  const ChurnPlan churn = parse_churn_specs(args.get_string("fail", ""),
                                            args.get_string("recover", ""));
  const auto check_every =
      static_cast<std::uint32_t>(args.get_count("check-every", 0));
  const bool csv = args.get_flag("csv");
  const RateModelOptions rates = read_rate_model(args);
  TelemetryOptions telemetry;
  read_telemetry(args, telemetry);
  args.finish();

  EngineMode mode = EngineMode::kDense;
  if (engine_mode == "active")
    mode = EngineMode::kActive;
  else if (engine_mode != "dense")
    throw std::invalid_argument("unknown --engine-mode '" + engine_mode +
                                "' (dense|active)");

  const Graph graph = make_complete(static_cast<Vertex>(m));
  ChurnStats churn_total;  // aggregated over the replications
  const AggregatedRuns agg =
      aggregate_runs(seed, reps, [&](std::uint64_t rep_seed) {
        Xoshiro256 rng(rep_seed);
        const Instance instance =
            build_instance(family, rates, n, m, slack, rng);
        State state = build_start(start, instance, rng);
        ProtocolSpec spec;
        spec.kind = kind;
        spec.lambda = lambda;
        spec.probes = static_cast<int>(probes);
        spec.graph = &graph;
        const auto protocol = make_protocol(spec);
        EngineConfig config;
        config.max_rounds = max_rounds;
        config.threads = threads;
        config.mode = mode;
        config.churn = churn;
        config.invariant_check_period = check_every;
        // Replications share the registry (counters accumulate) and the
        // sinks (one begin/end block per rep).
        apply_telemetry(telemetry, config);
        ReplicatedRun run;
        run.result = Engine(config).run(*protocol, state, rng);
        churn_total.failures += run.result.churn.failures;
        churn_total.recoveries += run.result.churn.recoveries;
        churn_total.evicted += run.result.churn.evicted;
        churn_total.max_dip_depth = std::max(churn_total.max_dip_depth,
                                             run.result.churn.max_dip_depth);
        churn_total.max_recovery_rounds =
            std::max(churn_total.max_recovery_rounds,
                     run.result.churn.max_recovery_rounds);
        churn_total.dip_open = churn_total.dip_open || run.result.churn.dip_open;
        run.num_users = instance.num_users();
        return run;
      });
  finish_telemetry(telemetry);

  TablePrinter table({"family", "protocol", "n", "m", "rounds_mean",
                      "rounds_p95", "migrations_mean", "messages_mean",
                      "satisfied_frac", "converged"});
  table.cell(family)
      .cell(kind)
      .cell(static_cast<long long>(n))
      .cell(static_cast<long long>(m))
      .cell(agg.rounds.mean())
      .cell(agg.rounds_p95)
      .cell(agg.migrations.mean())
      .cell(agg.messages.mean())
      .cell(agg.satisfied_fraction.mean())
      .cell(agg.converged_fraction)
      .end_row();
  if (csv)
    table.print_csv(std::cout);
  else
    table.print(std::cout);
  if (churn.any()) {
    std::cout << "churn: failures=" << churn_total.failures
              << " recoveries=" << churn_total.recoveries
              << " evicted=" << churn_total.evicted
              << " max_dip_depth=" << churn_total.max_dip_depth
              << " max_recovery_rounds=" << churn_total.max_recovery_rounds
              << " dip_open=" << (churn_total.dip_open ? "yes" : "no") << '\n';
  }
  return 0;
}

int mode_gen(ArgParser& args) {
  // Generates an instance (+ initial state) and writes the io format to
  // --out (default stdout), replayable with --mode=trace --load=FILE.
  const auto n = static_cast<std::size_t>(args.get_count("n", 1024));
  const auto m = static_cast<std::size_t>(args.get_count("m", 64));
  const double slack = args.get_double("slack", 0.15);
  const std::string family = args.get_string("family", "uniform");
  const std::string start = args.get_string("start", "all0");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string out_path = args.get_string("out", "");
  const RateModelOptions rates = read_rate_model(args);
  args.finish();

  Xoshiro256 rng(seed);
  const Instance instance = build_instance(family, rates, n, m, slack, rng);
  const State state = build_start(start, instance, rng);

  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) throw std::runtime_error("cannot open --out '" + out_path + "'");
  }
  std::ostream& out = out_path.empty() ? std::cout : file;
  write_instance(out, instance);
  write_state(out, state);
  if (!out_path.empty()) {
    QOSLB_INFO << "wrote " << instance.num_users() << " users / "
               << instance.num_resources() << " resources to " << out_path;
  }
  return 0;
}

int mode_trace(ArgParser& args) {
  const auto n = static_cast<std::size_t>(args.get_count("n", 1024));
  const auto m = static_cast<std::size_t>(args.get_count("m", 64));
  const double slack = args.get_double("slack", 0.15);
  const std::string family = args.get_string("family", "uniform");
  const std::string kind = args.get_string("protocol", "adaptive");
  const double lambda = args.get_double("lambda", 0.5);
  const std::string start = args.get_string("start", "all0");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const auto max_rounds = args.get_count("max-rounds", 100000);
  const std::string load_path = args.get_string("load", "");
  const RateModelOptions rates = read_rate_model(args);
  TelemetryOptions telemetry;
  read_telemetry(args, telemetry);
  args.finish();

  Xoshiro256 rng(seed);
  // Either replay a saved world (--load) or generate one.
  std::optional<Instance> instance;
  std::optional<State> state;
  if (!load_path.empty()) {
    std::ifstream file(load_path);
    if (!file) throw std::runtime_error("cannot open --load '" + load_path + "'");
    instance = read_instance(file);
    state.emplace(read_state(file, *instance));
  } else {
    instance = build_instance(family, rates, n, m, slack, rng);
    state.emplace(build_start(start, *instance, rng));
  }
  ProtocolSpec spec;
  spec.kind = kind;
  spec.lambda = lambda;
  const auto protocol = make_protocol(spec);

  // The trace is an Engine run feeding the CSV sink on stdout (plus any
  // --trace-out/--progress sinks); period 1 keeps the legacy recorder's
  // check-every-round semantics.
  obs::CsvTraceSink csv(std::cout);
  telemetry.tee.add(&csv);
  telemetry.has_rows = true;
  telemetry.enabled = true;
  EngineConfig config;
  config.max_rounds = max_rounds;
  config.stability_check_period = 1;
  config.seed = seed;
  apply_telemetry(telemetry, config);
  Engine(config).run(*protocol, *state, rng);
  finish_telemetry(telemetry);
  return 0;
}

int mode_async(ArgParser& args) {
  const auto n = static_cast<std::size_t>(args.get_count("n", 2000));
  const auto m = static_cast<std::size_t>(args.get_count("m", 100));
  const double slack = args.get_double("slack", 0.25);
  const double jitter = args.get_double("jitter", 0.5);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const bool random_start = !args.get_flag("all0");
  // Fault injection (docs/faults.md): --drop/--dup are uniform per-message
  // probabilities, --heavy-tail the probability of a Pareto latency spike,
  // --crash=A:T0:T1 crashes agent A over [T0, T1) (repeatable via a
  // comma-separated list). Agents are the resources 0 .. m-1, then the
  // users m .. m+n-1; any other id is rejected.
  const double drop = args.get_double("drop", 0.0);
  const double dup = args.get_double("dup", 0.0);
  const double heavy_tail = args.get_double("heavy-tail", 0.0);
  const std::string crash_spec = args.get_string("crash", "");
  TelemetryOptions telemetry;
  read_telemetry(args, telemetry);
  args.finish();

  Xoshiro256 rng(seed);
  const Instance instance = make_uniform_feasible(n, m, slack, 1.5, rng);
  EngineConfig config;
  config.seed = seed;
  config.latency_jitter = jitter;
  config.random_start = random_start;
  if (drop != 0.0) config.faults.drop_all(drop);
  if (dup != 0.0) config.faults.dup_all(dup);
  if (heavy_tail != 0.0) config.faults.heavy_tail(heavy_tail);
  for (const CrashWindow& window : parse_crash_spec(crash_spec))
    config.faults.crash(window.agent, window.t_crash, window.t_recover);
  // Async runs produce no trace rows; metrics and (virtual-time) phase
  // timers still apply.
  apply_telemetry(telemetry, config);
  const EngineResult result = Engine(config).run_async_admission(instance);
  finish_telemetry(telemetry);

  TablePrinter table({"n", "m", "virtual_time", "events", "messages",
                      "migrations", "satisfied", "all_satisfied", "quiesced",
                      "faults", "timeouts", "retries"});
  table.cell(static_cast<long long>(n))
      .cell(static_cast<long long>(m))
      .cell(result.virtual_time, 5)
      .cell(static_cast<unsigned long long>(result.events))
      .cell(static_cast<unsigned long long>(result.counters.messages()))
      .cell(static_cast<unsigned long long>(result.counters.migrations))
      .cell(static_cast<unsigned long long>(result.final_satisfied))
      .cell(result.all_satisfied ? "yes" : "no")
      .cell(result.termination == Termination::kQuiesced ? "yes" : "no")
      .cell(static_cast<unsigned long long>(result.faults.total()))
      .cell(static_cast<unsigned long long>(result.counters.timeouts))
      .cell(static_cast<unsigned long long>(result.counters.retries))
      .end_row();
  table.print(std::cout);
  return 0;
}

int mode_open(ArgParser& args) {
  const auto m = static_cast<std::size_t>(args.get_count("m", 64));
  const double rho = args.get_double("rho", 0.8);
  const auto rounds = args.get_count("rounds", 3000);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  args.finish();

  OpenSystemConfig config;
  config.num_resources = m;
  config.mean_lifetime = 200.0;
  config.q_lo = 0.04;
  config.q_hi = 0.05;
  config.arrival_rate = rho * static_cast<double>(m) * 22.5 / config.mean_lifetime;
  config.rounds = rounds;
  config.warmup_rounds = rounds / 3;
  config.seed = seed;
  const OpenSystemMetrics metrics = run_open_system(config);

  TablePrinter table({"rho", "mean_population", "violation_frac",
                      "rounds_to_sat", "arrivals", "migrations"});
  table.cell(rho)
      .cell(metrics.mean_population)
      .cell(metrics.violation_fraction)
      .cell(metrics.mean_rounds_to_satisfaction)
      .cell(static_cast<unsigned long long>(metrics.arrivals))
      .cell(static_cast<unsigned long long>(metrics.migrations))
      .end_row();
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    ArgParser args(argc, argv);
    const std::string log_level = args.get_string("log-level", "");
    if (!log_level.empty()) Log::set_level(parse_log_level(log_level));
    if (args.get_flag("list-protocols")) {
      std::size_t width = 0;
      for (const ProtocolInfo& info : protocol_registry())
        width = std::max(width, info.name.size());
      for (const ProtocolInfo& info : protocol_registry())
        std::cout << info.name << std::string(width - info.name.size() + 2, ' ')
                  << info.description
                  << (info.traits.active_set ? "  [active-set]" : "")
                  << (info.traits.restricted ? "  [restricted]" : "") << '\n';
      return 0;
    }
    const std::string mode = args.get_string("mode", "run");
    if (mode == "run") return mode_run(args);
    if (mode == "trace") return mode_trace(args);
    if (mode == "async") return mode_async(args);
    if (mode == "open") return mode_open(args);
    if (mode == "gen") return mode_gen(args);
    throw std::invalid_argument("unknown --mode '" + mode +
                                "' (run|trace|async|open|gen)");
  } catch (const std::exception& error) {
    std::cerr << "qoslb: " << error.what() << '\n';
    return 1;
  }
}
