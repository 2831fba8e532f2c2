// The traced replay: each workload's rounds re-driven through the public
// per-layer calls in the engine's order, with a span around every call.
//
// For the sharded workloads this mirrors Engine::run at threads = 1
// (drive_step_users in src/core/engine.cpp): the same master-seed fold, the
// same shard geometry, the same convergence checks. It must end on the same
// final-assignment hash as the untraced run, or the pass fails.

#include <algorithm>
#include <numeric>
#include <span>

#include "core/protocols/common.hpp"
#include "core/snapshot.hpp"
#include "internal.hpp"
#include "rng/round_rng.hpp"

namespace perfbench {

using qoslb::Counters;
using qoslb::MigrationBuffer;
using qoslb::MigrationRequest;
using qoslb::State;
using qoslb::UserId;

const char* span_name(Span span) {
  static constexpr std::array<const char*, kNumSpans> kNames = {
      "instance",   "generate",     "state_build", "index_build",
      "round",      "active_sort",  "snapshot",    "decide",
      "scan",       "keying",       "step_users",  "commit",
      "merge",      "resident_min", "commit_round", "shadow_moves",
      "stability",  "seq_step",     "weighted_round", "open_run"};
  return kNames[static_cast<std::size_t>(span)];
}

Tracer::Tracer() : epoch_(Clock::now()) { records_.reserve(1 << 16); }

std::int32_t Tracer::begin(Span kind) {
  const auto id = static_cast<std::int32_t>(records_.size());
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  const std::int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - epoch_)
                               .count();
  records_.push_back(Record{kind, parent, now, now});
  open_.push_back(id);
  return id;
}

double Tracer::end(std::int32_t id) {
  Record& record = records_[static_cast<std::size_t>(id)];
  record.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
  // Spans close innermost first.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  const double seconds = static_cast<double>(record.end_ns - record.start_ns) * 1e-9;
  totals_[static_cast<std::size_t>(record.kind)] += seconds;
  return seconds;
}

double Tracer::counted(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

namespace {

/// Seconds the replay spent on its own duplicate measurements so far.
double duplicate_seconds(const Tracer& t) {
  return t.total(Span::kScan) + t.total(Span::kKeying) + t.total(Span::kMerge) +
         t.total(Span::kResidentMin) + t.total(Span::kShadowMoves);
}

/// Replays one Engine::run of a sharded workload; returns whether it
/// converged. Accumulates the run's counters into `counters`.
bool replay_rounds(const ShardedSpec& spec, qoslb::Protocol& protocol,
                   State& state, qoslb::Xoshiro256& rng, Tracer& t,
                   std::vector<double>& round_us, Counters& counters) {
  const qoslb::EngineConfig config = spec.engine_config();
  // Engine::run's preamble, then run_step_users' master-seed fold.
  protocol.reset();
  state.enable_satisfaction_tracking();
  const std::uint64_t master = qoslb::derive_seed(config.seed, rng());
  const std::size_t n = state.num_users();
  const bool active = config.mode == qoslb::EngineMode::kActive &&
                      protocol.active_set_compatible();
  std::vector<UserId> iteration;
  if (!active) {
    iteration.resize(n);
    std::iota(iteration.begin(), iteration.end(), UserId{0});
  }
  // Untracked copy that follows the granted moves: the same moves without
  // index maintenance, for index.move_ns.
  State shadow(state.instance(), state.assignment());

  std::vector<int> snapshot;
  std::vector<MigrationBuffer> shards;
  std::vector<Counters> shard_counters;
  std::vector<MigrationRequest> merged;
  std::vector<MigrationRequest> granted;
  std::uint64_t rounds_done = 0;
  std::uint64_t sink = 0;

  const auto converged = [&] {
    if (state.count_satisfied() != n &&
        rounds_done % config.stability_check_period != 0)
      return false;
    Scoped span(t, Span::kStability);
    t.count("stability.checks", 1);
    return protocol.is_stable(state);
  };

  bool done = converged();
  for (std::uint64_t r = 0; !done && r < config.max_rounds; ++r) {
    const double duplicates_before = duplicate_seconds(t);
    Scoped round(t, Span::kRound);
    if (active) {
      Scoped span(t, Span::kActiveSort);
      const std::vector<UserId>& view = state.unsatisfied_view();
      iteration.assign(view.begin(), view.end());
      std::sort(iteration.begin(), iteration.end());
      t.count("engine.sorted_users", static_cast<double>(iteration.size()));
    }
    {
      Scoped span(t, Span::kSnapshot);
      snapshot = state.loads();
    }
    const qoslb::RoundRng streams(master, r);
    const std::size_t count = iteration.size();
    const std::size_t shard_size = config.shard_size;
    const std::size_t num_shards =
        std::max<std::size_t>(1, (count + shard_size - 1) / shard_size);
    shards.resize(num_shards);
    for (MigrationBuffer& shard : shards) {
      shard.requests.clear();
      shard.resource_tallies.clear();
      shard.decisions = nullptr;
    }
    shard_counters.assign(num_shards, Counters{});
    for (std::size_t s = 0; s < num_shards; ++s) {
      const std::size_t begin = s * shard_size;
      const std::size_t users = std::min(count, begin + shard_size) - begin;
      const UserId* first = iteration.data() + begin;
      Scoped decide(t, Span::kDecide);
      const std::int32_t scan = t.begin(Span::kScan);
      const std::span<const UserId> survivors =
          qoslb::unsatisfied_prefilter(state, snapshot, first, users);
      t.end(scan);
      const std::int32_t keying = t.begin(Span::kKeying);
      for (const UserId u : survivors) {
        qoslb::PhiloxEngine stream = streams.user_stream(u);
        sink += stream();
      }
      t.end(keying);
      const auto acting = static_cast<double>(survivors.size());
      t.count("scan.users", static_cast<double>(users));
      t.count("scan.survivors", acting);
      t.count("rng.streams", acting);
      {
        Scoped span(t, Span::kStepUsers);
        protocol.step_users(state, snapshot, first, users, shards[s], streams,
                            shard_counters[s]);
      }
      t.count("decide.users", static_cast<double>(users));
      t.count("decide.acting", acting);
      t.count("decide.requests", static_cast<double>(shards[s].requests.size()));
      t.count("decide.probes", static_cast<double>(shard_counters[s].probes));
    }
    for (const Counters& shard : shard_counters) counters += shard;
    {
      Scoped commit(t, Span::kCommit);
      {
        Scoped span(t, Span::kMerge);
        qoslb::merge_shard_requests(shards, merged);
      }
      t.count("commit.requests", static_cast<double>(merged.size()));
      if (spec.admission_commit) {
        Scoped span(t, Span::kResidentMin);
        sink += static_cast<std::uint64_t>(
            qoslb::resident_min_thresholds(state).front());
      }
      {
        Scoped span(t, Span::kCommitRound);
        protocol.commit_round(state, shards, counters);
      }
      granted.clear();
      for (const MigrationRequest& req : merged)
        if (state.resource_of(req.user) == req.target &&
            shadow.resource_of(req.user) != req.target)
          granted.push_back(req);
      {
        Scoped span(t, Span::kShadowMoves);
        for (const MigrationRequest& req : granted) shadow.move(req.user, req.target);
      }
      t.count("commit.migrations", static_cast<double>(granted.size()));
    }
    ++counters.rounds;
    ++rounds_done;
    done = converged();
    const double seconds = round.close();
    round_us.push_back((seconds - (duplicate_seconds(t) - duplicates_before)) * 1e6);
  }
  t.count("replay.sink_parity", static_cast<double>(sink & 1));
  return done;
}

}  // namespace

TracedPass replay_sharded(const ShardedSpec& spec, const RunOptions& options,
                          PassResult untraced) {
  TracedPass out;
  out.untraced = std::move(untraced);
  out.admission_commit = spec.admission_commit;
  Tracer& t = out.tracer;
  for (std::size_t i = 0; i < spec.instances; ++i) {
    Scoped instance(t, Span::kInstance);
    Prepared p = spec.prepare(instance_seed(options.seed, i), &t);
    const auto protocol = spec.make_protocol();
    Counters counters;
    const auto t0 = Clock::now();
    const bool converged =
        replay_rounds(spec, *protocol, *p.state, p.rng, t, out.round_us, counters);
    out.replay_s += seconds_between(t0, Clock::now());
    out.replay_rounds += counters.rounds;
    out.replay_messages += counters.messages();
    if (options.corrupt) corrupt_state(*p.state);
    const std::string failure = check_final(*protocol, *p.state, converged);
    if (!failure.empty())
      out.untraced.failures.push_back(spec.name + " replay " + std::to_string(i) +
                                      ": " + failure);
    out.replay_hash = combine(out.replay_hash, qoslb::state_hash(*p.state));
  }
  return out;
}

TracedPass replay_legacy(const LegacySpec& spec, const RunOptions& options,
                         PassResult untraced) {
  TracedPass out;
  out.untraced = std::move(untraced);
  Tracer& t = out.tracer;
  for (std::size_t i = 0; i < spec.instances; ++i) {
    Scoped instance(t, Span::kInstance);
    const std::string where = "legacy-loops replay " + std::to_string(i);
    {
      // Engine::run -> run_sequential: one step() per round, stability on
      // the all-satisfied fast path and every stability_check_period rounds.
      Prepared p = spec.prepare_seq(options.seed, i, &t);
      qoslb::ProtocolSpec kind;
      kind.kind = "seq-br";
      const auto protocol = qoslb::make_protocol(kind);
      const qoslb::EngineConfig config = spec.seq_config();
      const auto t0 = Clock::now();
      protocol->reset();
      State& state = *p.state;
      Counters counters;
      std::uint64_t steps = 0;
      const auto converged = [&] {
        if (state.count_satisfied() != state.num_users() &&
            steps % config.stability_check_period != 0)
          return false;
        Scoped span(t, Span::kStability);
        t.count("stability.checks", 1);
        return protocol->is_stable(state);
      };
      bool done = converged();
      while (!done && steps < config.max_rounds) {
        {
          Scoped span(t, Span::kSeqStep);
          protocol->step(state, p.rng, counters);
        }
        ++counters.rounds;
        ++steps;
        done = converged();
      }
      out.replay_s += seconds_between(t0, Clock::now());
      t.count("seq.steps", static_cast<double>(steps));
      out.replay_rounds += steps;
      out.replay_messages += counters.messages();
      if (options.corrupt) corrupt_state(state);
      const std::string failure = check_final(*protocol, state, done);
      if (!failure.empty()) out.untraced.failures.push_back(where + " seq-br: " + failure);
      out.replay_hash = combine(out.replay_hash, qoslb::state_hash(state));
    }
    {
      // Engine::run(WeightedProtocol&, ...): stability checked before each
      // step, on the fast path and every stability_check_period rounds.
      PreparedWeighted p = spec.prepare_weighted(options.seed, i, &t);
      qoslb::WeightedUniformSampling protocol(spec.w_lambda);
      const qoslb::EngineConfig config = spec.weighted_config();
      const auto t0 = Clock::now();
      protocol.reset();
      qoslb::WeightedState& state = *p.state;
      Counters counters;
      bool done = false;
      for (std::uint64_t round = 0; round <= config.max_rounds; ++round) {
        if (state.count_satisfied() == state.num_users() ||
            round % config.stability_check_period == 0) {
          Scoped span(t, Span::kStability);
          t.count("stability.checks", 1);
          if (protocol.is_stable(state)) {
            done = true;
            break;
          }
        }
        if (round == config.max_rounds) break;
        {
          Scoped span(t, Span::kWeightedRound);
          protocol.step(state, p.rng, counters);
        }
        ++counters.rounds;
      }
      out.replay_s += seconds_between(t0, Clock::now());
      t.count("weighted.rounds", static_cast<double>(counters.rounds));
      out.replay_rounds += counters.rounds;
      out.replay_messages += counters.messages();
      const std::string failure = check_final(protocol, state, done);
      if (!failure.empty()) out.untraced.failures.push_back(where + " weighted: " + failure);
      out.replay_hash = combine(out.replay_hash, weighted_hash(state));
    }
    {
      qoslb::OpenSystemConfig config = spec.open;
      config.seed = spec.open_seed(options.seed, i);
      const auto t0 = Clock::now();
      qoslb::OpenSystemMetrics metrics;
      {
        Scoped span(t, Span::kOpenRun);
        metrics = qoslb::run_open_system(config);
      }
      out.replay_s += seconds_between(t0, Clock::now());
      t.count("open.rounds", static_cast<double>(config.rounds));
      out.replay_rounds += config.rounds;
      out.replay_messages += 2 * metrics.probes + metrics.migrations;
      out.replay_hash = combine(out.replay_hash, open_hash(metrics));
    }
  }
  return out;
}

std::map<std::string, Metric> layer_metrics(const TracedPass& pass) {
  const Tracer& t = pass.tracer;
  const auto per = [](double x, double base) { return base > 0.0 ? x / base : 0.0; };
  const auto s = [&](Span kind) { return t.total(kind); };
  const double users = t.counted("scan.users");
  const double acting = t.counted("decide.acting");
  const double requests = t.counted("commit.requests");
  const double migrations = t.counted("commit.migrations");
  // commit_round repeats the merge and the resident minima for admission;
  // what remains is the commit itself: moves plus index maintenance.
  const double commit_self =
      s(Span::kCommitRound) -
      (pass.admission_commit ? s(Span::kMerge) + s(Span::kResidentMin) : 0.0);
  // Every span that is part of the untraced run's work, none twice.
  const double accounted = s(Span::kSnapshot) + s(Span::kActiveSort) +
                           s(Span::kStepUsers) + s(Span::kCommitRound) +
                           s(Span::kStability) + s(Span::kSeqStep) +
                           s(Span::kWeightedRound) + s(Span::kOpenRun);

  std::vector<double> rounds = pass.round_us;
  std::sort(rounds.begin(), rounds.end());
  const auto quantile = [&](double q) {
    if (rounds.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(q * static_cast<double>(rounds.size() - 1) + 0.5);
    return rounds[rank];
  };
  const double steps = t.counted("seq.steps");
  const double w_rounds = t.counted("weighted.rounds");
  const double open_rounds = t.counted("open.rounds");

  return {
      {"generators.build_s", {s(Span::kGenerate), "s"}},
      {"state.build_s", {s(Span::kStateBuild), "s"}},
      {"index.build_s", {s(Span::kIndexBuild), "s"}},
      {"index.move_ns", {per(commit_self - s(Span::kShadowMoves), migrations) * 1e9, "ns"}},
      {"scan.users", {users, "count"}},
      {"scan.ns_per_user", {per(s(Span::kScan), users) * 1e9, "ns"}},
      {"scan.survivor_frac", {per(t.counted("scan.survivors"), users), "ratio"}},
      {"rng.streams", {t.counted("rng.streams"), "count"}},
      {"rng.ns_per_stream", {per(s(Span::kKeying), t.counted("rng.streams")) * 1e9, "ns"}},
      {"decide.users", {t.counted("decide.users"), "count"}},
      {"decide.probes", {t.counted("decide.probes"), "count"}},
      {"decide.requests", {t.counted("decide.requests"), "count"}},
      {"decide.request_frac", {per(t.counted("decide.requests"), acting), "ratio"}},
      {"decide.ns_per_user",
       {per(s(Span::kStepUsers) - s(Span::kScan) - s(Span::kKeying),
            t.counted("decide.users")) * 1e9,
        "ns"}},
      {"merge.ns_per_request", {per(s(Span::kMerge), requests) * 1e9, "ns"}},
      {"commit.requests", {requests, "count"}},
      {"commit.migrations", {migrations, "count"}},
      {"commit.grant_frac", {per(migrations, requests), "ratio"}},
      {"commit.ns_per_request", {per(commit_self, requests) * 1e9, "ns"}},
      {"admission.resident_min_s", {s(Span::kResidentMin), "s"}},
      {"engine.snapshot_s", {s(Span::kSnapshot), "s"}},
      {"engine.active_sort_ns_per_user",
       {per(s(Span::kActiveSort), t.counted("engine.sorted_users")) * 1e9, "ns"}},
      {"engine.round_p50_us", {quantile(0.50), "us"}},
      {"engine.round_p99_us", {quantile(0.99), "us"}},
      {"engine.residual_frac", {1.0 - per(accounted, pass.untraced.run_s), "ratio"}},
      {"stability.checks", {t.counted("stability.checks"), "count"}},
      {"stability.s", {s(Span::kStability), "s"}},
      {"seq.steps", {steps, "count"}},
      {"seq.step_us", {per(s(Span::kSeqStep), steps) * 1e6, "us"}},
      {"weighted.rounds", {w_rounds, "count"}},
      {"weighted.round_ms", {per(s(Span::kWeightedRound), w_rounds) * 1e3, "ms"}},
      {"open.rounds", {open_rounds, "count"}},
      {"open.round_us", {per(s(Span::kOpenRun), open_rounds) * 1e6, "us"}},
      {"trace.overhead_frac", {per(pass.replay_s, pass.untraced.run_s) - 1.0, "ratio"}},
  };
}

}  // namespace perfbench
