// The four workloads, their set-up, their untraced runs through
// Engine::run, and the output check every run passes through.

#include <cstring>
#include <optional>
#include <stdexcept>

#include "core/generators.hpp"
#include "core/snapshot.hpp"
#include "core/weighted/weighted_generators.hpp"
#include "internal.hpp"

namespace perfbench {

using qoslb::EngineConfig;
using qoslb::EngineResult;
using qoslb::Instance;
using qoslb::ResourceId;
using qoslb::State;
using qoslb::UserId;

namespace {

/// A span when tracing, nothing otherwise.
class MaybeSpan {
 public:
  MaybeSpan(Tracer* tracer, Span kind) {
    if (tracer != nullptr) span_.emplace(*tracer, kind);
  }

 private:
  std::optional<Scoped> span_;
};

void add_run(PassResult& pass, const EngineResult& result, std::size_t users) {
  pass.rounds += result.rounds;
  pass.messages += result.counters.messages();
  pass.users += users;
  pass.user_rounds +=
      static_cast<double>(users) * static_cast<double>(result.rounds);
}

std::string open_failure(const qoslb::OpenSystemMetrics& metrics) {
  if (metrics.arrivals == 0 || metrics.probes == 0)
    return "open system saw no arrivals or probes";
  if (metrics.departures > metrics.arrivals)
    return "open system departed more users than arrived";
  if (!(metrics.violation_fraction >= 0.0 && metrics.violation_fraction <= 1.0))
    return "open system violation fraction outside [0, 1]";
  return "";
}

PassResult run_sharded(const ShardedSpec& spec, const RunOptions& options) {
  PassResult pass;
  for (std::size_t i = 0; i < spec.instances; ++i) {
    const auto t0 = Clock::now();
    Prepared p = spec.prepare(instance_seed(options.seed, i), nullptr);
    const auto t1 = Clock::now();
    const auto protocol = spec.make_protocol();
    const qoslb::Engine engine(spec.engine_config());
    const auto t2 = Clock::now();
    const EngineResult result = engine.run(*protocol, *p.state, p.rng);
    const auto t3 = Clock::now();
    pass.setup_s += seconds_between(t0, t1);
    pass.run_s += seconds_between(t2, t3);
    add_run(pass, result, p.state->num_users());
    if (options.corrupt) corrupt_state(*p.state);
    const std::string failure =
        check_final(*protocol, *p.state, result.converged);
    if (!failure.empty())
      pass.failures.push_back(spec.name + " instance " + std::to_string(i) +
                              ": " + failure);
    pass.hash = combine(pass.hash, qoslb::state_hash(*p.state));
  }
  return pass;
}

PassResult run_legacy(const LegacySpec& spec, const RunOptions& options) {
  PassResult pass;
  for (std::size_t i = 0; i < spec.instances; ++i) {
    const std::string where = "legacy-loops instance " + std::to_string(i);
    {
      const auto t0 = Clock::now();
      Prepared p = spec.prepare_seq(options.seed, i, nullptr);
      const auto t1 = Clock::now();
      qoslb::ProtocolSpec kind;
      kind.kind = "seq-br";
      const auto protocol = qoslb::make_protocol(kind);
      const qoslb::Engine engine(spec.seq_config());
      const auto t2 = Clock::now();
      const EngineResult result = engine.run(*protocol, *p.state, p.rng);
      const auto t3 = Clock::now();
      pass.setup_s += seconds_between(t0, t1);
      pass.run_s += seconds_between(t2, t3);
      add_run(pass, result, p.state->num_users());
      if (options.corrupt) corrupt_state(*p.state);
      const std::string failure =
          check_final(*protocol, *p.state, result.converged);
      if (!failure.empty()) pass.failures.push_back(where + " seq-br: " + failure);
      pass.hash = combine(pass.hash, qoslb::state_hash(*p.state));
    }
    {
      const auto t0 = Clock::now();
      PreparedWeighted p = spec.prepare_weighted(options.seed, i, nullptr);
      const auto t1 = Clock::now();
      qoslb::WeightedUniformSampling protocol(spec.w_lambda);
      const qoslb::Engine engine(spec.weighted_config());
      const auto t2 = Clock::now();
      const EngineResult result = engine.run(protocol, *p.state, p.rng);
      const auto t3 = Clock::now();
      pass.setup_s += seconds_between(t0, t1);
      pass.run_s += seconds_between(t2, t3);
      add_run(pass, result, p.state->num_users());
      const std::string failure =
          check_final(protocol, *p.state, result.converged);
      if (!failure.empty()) pass.failures.push_back(where + " weighted: " + failure);
      pass.hash = combine(pass.hash, weighted_hash(*p.state));
    }
    {
      qoslb::OpenSystemConfig config = spec.open;
      config.seed = spec.open_seed(options.seed, i);
      const auto t0 = Clock::now();
      const qoslb::OpenSystemMetrics metrics = qoslb::run_open_system(config);
      const auto t1 = Clock::now();
      pass.run_s += seconds_between(t0, t1);
      pass.rounds += config.rounds;
      // Round-trip cost model of Counters::messages(): a probe is two
      // messages, a migration one; the open system counts nothing else.
      pass.messages += 2 * metrics.probes + metrics.migrations;
      pass.users += metrics.arrivals;
      pass.user_rounds +=
          metrics.mean_population * static_cast<double>(config.rounds);
      const std::string failure = open_failure(metrics);
      if (!failure.empty()) pass.failures.push_back(where + " open: " + failure);
      pass.hash = combine(pass.hash, open_hash(metrics));
    }
  }
  return pass;
}

Workload sharded_workload(ShardedSpec spec, std::uint64_t pinned_full,
                          std::uint64_t pinned_tiny) {
  Workload w;
  w.name = spec.name;
  w.instances = spec.instances;
  w.run_pass = [spec](const RunOptions& o) { return run_sharded(spec, o); };
  w.traced_pass = [spec](const RunOptions& o) {
    return replay_sharded(spec, o, run_sharded(spec, o));
  };
  w.pinned = {pinned_full, pinned_tiny};
  return w;
}

Workload legacy_workload(LegacySpec spec, std::uint64_t pinned_full,
                         std::uint64_t pinned_tiny) {
  Workload w;
  w.name = "legacy-loops";
  w.instances = spec.instances;
  w.run_pass = [spec](const RunOptions& o) { return run_legacy(spec, o); };
  w.traced_pass = [spec](const RunOptions& o) {
    return replay_legacy(spec, o, run_legacy(spec, o));
  };
  w.pinned = {pinned_full, pinned_tiny};
  return w;
}

}  // namespace

Prepared ShardedSpec::prepare(std::uint64_t seed, Tracer* tracer) const {
  Prepared p;
  p.rng = qoslb::Xoshiro256(seed);
  {
    MaybeSpan span(tracer, Span::kGenerate);
    p.instance = std::make_unique<Instance>(
        generator == Generator::kUniformFeasible
            ? qoslb::make_uniform_feasible(n, m, slack, heterogeneity, p.rng)
            : qoslb::make_clustered_bipartite(n, m, clusters, extra, slack,
                                              p.rng));
  }
  {
    MaybeSpan span(tracer, Span::kStateBuild);
    p.state = std::make_unique<State>(all_on_zero
                                          ? State::all_on(*p.instance, 0)
                                          : State::random(*p.instance, p.rng));
  }
  {
    MaybeSpan span(tracer, Span::kIndexBuild);
    p.state->enable_satisfaction_tracking();
  }
  return p;
}

std::unique_ptr<qoslb::Protocol> ShardedSpec::make_protocol() const {
  qoslb::ProtocolSpec kind;
  kind.kind = protocol;
  kind.lambda = lambda;
  return qoslb::make_protocol(kind);
}

EngineConfig ShardedSpec::engine_config() const {
  EngineConfig config;
  config.threads = 1;
  config.mode = mode;
  config.max_rounds = max_rounds;
  return config;
}

Prepared LegacySpec::prepare_seq(std::uint64_t seed, std::size_t i,
                                 Tracer* tracer) const {
  Prepared p;
  p.rng = qoslb::Xoshiro256(qoslb::derive_seed(instance_seed(seed, i), 1));
  {
    MaybeSpan span(tracer, Span::kGenerate);
    p.instance = std::make_unique<Instance>(qoslb::make_uniform_feasible(
        seq_n, seq_m, seq_slack, seq_heterogeneity, p.rng));
  }
  {
    MaybeSpan span(tracer, Span::kStateBuild);
    p.state = std::make_unique<State>(State::random(*p.instance, p.rng));
  }
  {
    MaybeSpan span(tracer, Span::kIndexBuild);
    p.state->enable_satisfaction_tracking();
  }
  return p;
}

PreparedWeighted LegacySpec::prepare_weighted(std::uint64_t seed, std::size_t i,
                                              Tracer* tracer) const {
  PreparedWeighted p;
  p.rng = qoslb::Xoshiro256(qoslb::derive_seed(instance_seed(seed, i), 2));
  {
    MaybeSpan span(tracer, Span::kGenerate);
    p.instance = std::make_unique<qoslb::WeightedInstance>(
        qoslb::make_weighted_feasible(w_n, w_m, w_slack, w_classes, w_skew,
                                      p.rng));
  }
  {
    MaybeSpan span(tracer, Span::kStateBuild);
    p.state = std::make_unique<qoslb::WeightedState>(
        qoslb::WeightedState::all_on(*p.instance, 0));
  }
  {
    MaybeSpan span(tracer, Span::kIndexBuild);
    p.state->enable_satisfaction_tracking();
  }
  return p;
}

EngineConfig LegacySpec::seq_config() const {
  EngineConfig config;
  config.threads = 1;
  config.max_rounds = seq_max_steps;
  return config;
}

EngineConfig LegacySpec::weighted_config() const {
  EngineConfig config;
  config.threads = 1;
  config.max_rounds = w_max_rounds;
  return config;
}

void corrupt_state(State& state) {
  const Instance& instance = state.instance();
  const ResourceId target = state.resource_of(0);
  for (UserId u = 1; u < state.num_users(); ++u)
    if (!instance.restricted() || instance.rate(u, target) > 0.0)
      state.move(u, target);
}

std::uint64_t weighted_hash(const qoslb::WeightedState& state) {
  std::uint64_t h = qoslb::mix64(0x5EED'3E16'47ED'0001ULL ^ state.num_users());
  for (UserId u = 0; u < state.num_users(); ++u)
    h = qoslb::mix64(h ^ (state.resource_of(u) + 0x9E3779B97F4A7C15ULL));
  return h;
}

std::uint64_t open_hash(const qoslb::OpenSystemMetrics& metrics) {
  const auto bits = [](double x) {
    std::uint64_t b = 0;
    std::memcpy(&b, &x, sizeof b);
    return b;
  };
  std::uint64_t h = qoslb::mix64(0x0DE0'5E57'0000'0001ULL);
  for (const std::uint64_t part :
       {metrics.arrivals, metrics.departures, metrics.migrations,
        metrics.probes, metrics.never_satisfied,
        bits(metrics.mean_population), bits(metrics.violation_fraction)})
    h = qoslb::mix64(h ^ part);
  return h;
}

std::vector<std::string> workload_names() {
  return {"flood-dense", "tail-active", "admission-restricted", "legacy-loops"};
}

std::optional<Workload> make_workload(std::string_view name, Scale scale) {
  // Full-scale instances are sized to stay near a core's private L2, and a
  // pass sums many of them: on a shared host, instances that live in the
  // shared last-level cache drift far more between runs (perfbench/README.md).
  const bool full = scale == Scale::kFull;
  if (name == "flood-dense") {
    ShardedSpec spec;
    spec.name = "flood-dense";
    spec.instances = full ? 40 : 2;
    spec.n = full ? 50'000 : 20'000;
    spec.m = full ? 50 : 20;
    spec.slack = 0.05;
    spec.heterogeneity = 1.5;
    spec.all_on_zero = true;
    spec.protocol = "uniform";
    spec.lambda = 0.5;
    spec.mode = qoslb::EngineMode::kDense;
    spec.max_rounds = 10'000;
    return sharded_workload(std::move(spec), 0xe13174156144a078ULL,
                            0xdd466906f2cd0edaULL);
  }
  if (name == "tail-active") {
    ShardedSpec spec;
    spec.name = "tail-active";
    spec.instances = full ? 100 : 2;
    spec.n = full ? 20'000 : 5'000;
    spec.m = full ? 200 : 50;
    spec.slack = 0.0;
    spec.heterogeneity = 1.5;
    spec.protocol = "uniform";
    spec.lambda = 0.05;
    spec.mode = qoslb::EngineMode::kActive;
    spec.max_rounds = 1'000'000;
    return sharded_workload(std::move(spec), 0xbaf0de3868637d29ULL,
                            0xcd6991264a068fbdULL);
  }
  if (name == "admission-restricted") {
    ShardedSpec spec;
    spec.name = "admission-restricted";
    spec.instances = full ? 40 : 2;
    spec.generator = ShardedSpec::Generator::kClusteredBipartite;
    spec.n = full ? 40'000 : 8'000;
    spec.m = 40;
    spec.clusters = 5;
    spec.extra = 2;
    spec.slack = 0.01;
    spec.protocol = "admission";
    spec.mode = qoslb::EngineMode::kDense;
    spec.admission_commit = true;
    spec.max_rounds = 100'000;
    return sharded_workload(std::move(spec), 0x96c418ed6cca82aeULL,
                            0x3c75841e3f05582bULL);
  }
  if (name == "legacy-loops") {
    LegacySpec spec;
    spec.instances = full ? 10 : 2;
    spec.seq_n = full ? 30'000 : 2'000;
    spec.seq_m = full ? 300 : 20;
    spec.seq_slack = 0.02;
    spec.seq_heterogeneity = 1.5;
    spec.seq_max_steps = 10'000'000;
    spec.w_n = full ? 150'000 : 4'000;
    spec.w_m = full ? 750 : 20;
    spec.w_slack = 0.15;
    spec.w_classes = 4;
    spec.w_skew = 1.0;
    spec.w_lambda = 0.5;
    spec.w_max_rounds = 100'000;
    spec.open.num_resources = full ? 100 : 50;
    spec.open.arrival_rate = full ? 20.0 : 10.0;
    spec.open.rounds = full ? 600 : 200;
    spec.open.warmup_rounds = full ? 150 : 50;
    return legacy_workload(std::move(spec), 0xd4bfe787a316e11cULL,
                           0x840765437eba55f9ULL);
  }
  return std::nullopt;
}

}  // namespace perfbench
