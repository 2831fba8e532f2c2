#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/churn_plan.hpp"
#include "core/protocol.hpp"
#include "core/snapshot.hpp"
#include "core/state.hpp"
#include "obs/telemetry.hpp"
#include "core/accounting.hpp"
#include "sim/faults.hpp"
#include "util/backoff.hpp"

namespace qoslb {

/// Why a run stopped.
enum class Termination : std::uint8_t {
  kConverged,  // reached the protocol's stability notion
  kRoundCap,   // max_rounds exhausted first
  kQuiesced,   // async: the event queue drained
  kEventCap,   // async: max_events deliveries happened first (best-effort)
};

/// Which users a synchronous round iterates (the PR 3 tentpole).
enum class EngineMode : std::uint8_t {
  /// Scan all n users every round — the classic engine.
  kDense,
  /// Iterate only the incrementally-tracked unsatisfied set, so the decide
  /// phase costs O(|active|) instead of O(n); the commit's own cost is per
  /// protocol (docs/performance.md). Bit-identical to kDense for protocols
  /// with active_set_compatible() (their satisfied users neither act nor
  /// draw); the others (berenbrink) silently run densely.
  kActive,
};

/// The one run configuration (DESIGN.md §6, docs/engine.md). Supersedes the
/// former RunConfig / AsyncConfig / weighted runner arguments; fields that
/// don't apply to a given entry point are simply ignored by it.
struct EngineConfig {
  // --- synchronous rounds ---
  std::uint64_t max_rounds = 1u << 20;  // qoslb-snapshot: transient
  /// The (possibly O(n·m)) protocol stability check runs every this many
  /// rounds; the all-satisfied fast path is checked every round, so feasible
  /// runs report exact round counts.
  std::uint32_t stability_check_period = 4;  // qoslb-snapshot: transient
  bool record_trajectory = false;  // qoslb-snapshot: transient

  // --- sharded execution (see docs/engine.md, docs/performance.md) ---
  /// Dense or active-set round iteration (see EngineMode).
  EngineMode mode = EngineMode::kDense;  // qoslb-snapshot: transient
  /// Workers for the decide fan-out of step_users() protocols: 0 = hardware
  /// concurrency, 1 = inline on the calling thread (no pool). Every count
  /// gives the same realization; step() protocols always run inline.
  std::size_t threads = 1;  // qoslb-snapshot: transient
  /// Users per shard. The shard partition is fixed (independent of the
  /// thread count), which is what makes sharded results thread-invariant —
  /// and per-user substreams make the realization independent of this value
  /// altogether, so it is purely a performance knob. The default keeps a
  /// shard's working set (assignment + threshold arrays plus its slice of
  /// the load snapshot) inside a per-core L2 while leaving >= 8 shards of
  /// claimable work per million users.
  std::size_t shard_size = 8192;  // qoslb-snapshot: transient

  /// Master seed for the per-user counter-based substreams of step_users()
  /// protocols and for async runs. Those runs additionally fold in one draw
  /// from the caller's RNG, so replications seeded through that RNG stay
  /// distinct; step() protocols draw from the caller's RNG directly.
  std::uint64_t seed = 1;  // qoslb-snapshot: as(master_seed)

  // --- asynchronous (DES) runs ---
  double latency_jitter = 0.5;  // qoslb-snapshot: transient
  std::uint64_t max_events = 5'000'000;  // qoslb-snapshot: transient
  // false: all users start on resource 0
  bool random_start = true;  // qoslb-snapshot: transient
  /// Non-empty: user u starts on initial_assignment[u] (overrides
  /// random_start). Used to chain churn transforms with an async re-run.
  std::vector<ResourceId> initial_assignment;  // qoslb-snapshot: transient
  /// Message/crash fault plan; inert by default (see sim/faults.hpp).
  FaultPlan faults;  // qoslb-snapshot: transient
  /// Timeout/retry policy for loss-tolerant mode.
  ExponentialBackoff backoff;  // qoslb-snapshot: transient
  /// Arm timeouts/sequence numbers even with an inert fault plan (testing).
  bool force_timeouts = false;  // qoslb-snapshot: transient

  // --- robustness (docs/faults.md) ---
  /// Scheduled mid-run resource churn, applied at round boundaries. Empty by
  /// default; step() protocols reject a non-empty plan. Never checkpointed:
  /// resume() replays the plan of the caller's config, and the checkpoint's
  /// "churn" block is the ChurnTracker's progress, not this plan.
  ChurnPlan churn;  // qoslb-snapshot: transient
  /// Every this many rounds the round loop runs the full O(n + m)
  /// State::check_invariants() audit (assignment/load/index/liveness
  /// cross-checks). 0 = off (the default; audits are for the chaos harness
  /// and CI, not the hot path).
  std::uint32_t invariant_check_period = 0;  // qoslb-snapshot: transient
  /// Round boundaries at which the round loop hands a checkpoint to
  /// snapshot_sink (strictly increasing; each fires before that round's
  /// churn events and decisions). Requires snapshot_sink and a step_users()
  /// protocol.
  std::vector<std::uint64_t> snapshot_rounds;  // qoslb-snapshot: transient
  /// Receives each captured checkpoint. Borrowed for the run's duration.
  std::function<void(const SnapshotV1&)> snapshot_sink;  // qoslb-snapshot: transient

  // --- observability (see docs/observability.md) ---
  /// Optional metrics registry / trace sink / phase clock. All borrowed, all
  /// null by default. Telemetry is read-only with respect to the run: with
  /// any combination attached, the realization (assignments, counters,
  /// round counts) is bit-identical to the all-null configuration — a
  /// contract tested across thread counts and engine modes.
  obs::Telemetry telemetry;  // qoslb-snapshot: transient
};

/// The one run result. Supersedes RunResult / AsyncRunResult /
/// WeightedRunResult; entry points leave the fields they don't produce at
/// their zero defaults.
struct EngineResult {
  std::uint64_t rounds = 0;
  Termination termination = Termination::kRoundCap;
  bool converged = false;      // termination == kConverged or kQuiesced
  bool all_satisfied = false;  // every user satisfied at the end
  std::size_t final_satisfied = 0;
  /// Total weight of the satisfied users at the end (round-loop runs of
  /// either model; final_satisfied in the unit model).
  std::uint64_t final_satisfied_weight = 0;
  double virtual_time = 0.0;                 // async: time of the last event
  std::uint64_t events = 0;                  // async: deliveries executed
  std::size_t threads_used = 1;              // sharded runs: worker count
  Counters counters;
  FaultStats faults;  // what the injector actually did (zero if off)
  /// Graceful-degradation metrics of the run's churn plan (zero if none).
  ChurnStats churn;
  /// Unsatisfied count after each round (only if record_trajectory).
  std::vector<std::uint32_t> unsatisfied_trajectory;
  /// Phase timers and trace-row accounting (enabled iff config.telemetry
  /// attached anything; zero otherwise).
  obs::RunTelemetry telemetry;
};

/// The unified run facade: one configuration, one result, every execution
/// substrate — the synchronous round loop every protocol of either load
/// model runs on, and the asynchronous DES realizations. See docs/engine.md
/// for the API migration table from the former entry points.
class Engine {
 public:
  Engine() = default;
  explicit Engine(EngineConfig config);

  const EngineConfig& config() const { return config_; }

  /// Drives `protocol` on `state` until stable or max_rounds, resetting the
  /// protocol's adaptive state first and enabling the state's incremental
  /// satisfaction tracking (so per-round satisfaction reads are O(1)).
  /// Protocols implementing step_users() decide in shards with
  /// per-(seed, round, user) Philox substreams: the realization is
  /// deterministic in (config().seed, rng state) and bit-identical for
  /// every thread count and engine mode (dense vs. active, for
  /// active-set-compatible protocols). Every other protocol runs one
  /// step() per round against `rng`, inline, and rejects a churn plan and
  /// snapshot rounds. Instantiated for both load models: Protocol on State
  /// and WeightedProtocol on WeightedState share this one body and loop
  /// (the weighted protocols are step() protocols).
  template <typename Model>
  EngineResult run(BasicProtocol<Model>& protocol, BasicState<Model>& state,
                   Xoshiro256& rng) const;

  /// Asynchronous (DES) admission protocol under this config's seed,
  /// latency, start and fault plan.
  EngineResult run_async_admission(const Instance& instance) const;

  /// Asynchronous optimistic (λ-damped) protocol.
  EngineResult run_async_optimistic(const Instance& instance,
                                    double lambda) const;

  /// Runs `protocol` on `state` like run() and captures the checkpoint at
  /// the boundary of round `at_round` (before that round's churn events and
  /// decisions). The run continues to completion — `state` ends final, the
  /// returned snapshot is the mid-run cut. Requires a step_users() protocol
  /// and that the run actually reaches `at_round`.
  SnapshotV1 save_snapshot(Protocol& protocol, State& state, Xoshiro256& rng,
                           std::uint64_t at_round) const;

  /// Continues a checkpointed run to completion. `state` must match the
  /// snapshot (same assignment and liveness — build it with
  /// SnapshotV1::make_state) and this config must carry the original run's
  /// churn plan; remaining events replay on schedule. The continuation is
  /// bit-identical to the uninterrupted run for every thread count and
  /// engine mode: per-round randomness re-derives from the checkpointed
  /// master seed, which is reused verbatim (never re-folded).
  EngineResult resume(Protocol& protocol, const SnapshotV1& snapshot,
                      State& state) const;

 private:
  /// The round loop behind run() and resume(), for either load model.
  /// `rng` feeds step() protocols and may be null for step_users() ones;
  /// `master_seed` keys the latter's substreams and is what a checkpoint
  /// stores.
  template <typename Model>
  EngineResult drive(BasicProtocol<Model>& protocol, BasicState<Model>& state,
                     Xoshiro256* rng, std::uint64_t master_seed,
                     std::uint64_t start_round, Counters start_counters,
                     ChurnTracker tracker) const;

  EngineConfig config_;
};

}  // namespace qoslb
