#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "core/instance.hpp"
#include "core/accounting.hpp"
#include "sim/faults.hpp"
#include "util/backoff.hpp"

namespace qoslb {

/// The asynchronous (event-driven) runs are configured through the unified
/// EngineConfig: the DES engine delivers each message after its base delay
/// plus Uniform(0, latency_jitter) — there is no global round clock,
/// matching the asynchronous message-passing model of the
/// distributed-computing setting.
///
/// Fault injection: `faults` describes message drops/duplicates, heavy-tail
/// delays, and resource crash windows (see sim/faults.hpp). Whenever the
/// plan is active (faults.any()) — or `force_timeouts` is set — the agents
/// run in *loss-tolerant* mode: every probe/request carries a sequence
/// number, replies are matched against it (stale and duplicate messages are
/// suppressed), unanswered operations time out and are retried under
/// `backoff` with bounded attempts (delay(k) must exceed a round trip,
/// 2 * (1 + jitter)), and departures are retransmitted until acknowledged.
/// With an inert plan the protocols run exactly the paper's trusting
/// realization — byte-identical schedules and counters to the
/// pre-fault-layer implementation.

/// Result of the asynchronous free-function entry points below. The Engine
/// facade (run_async_admission / run_async_optimistic) folds this into the
/// unified EngineResult (satisfied → final_satisfied).
struct AsyncRunResult {
  bool all_satisfied = false;
  std::size_t satisfied = 0;
  double virtual_time = 0.0;   // time of the last delivered event
  std::uint64_t events = 0;
  Termination termination = Termination::kQuiesced;
  bool hit_event_cap = false;  // convenience: termination == kEventCap
  Counters counters;
  FaultStats faults;           // what the injector actually did (zero if off)
  /// kEventDispatch phase seconds are *virtual* seconds (the DES drives an
  /// obs::VirtualClock); count is the number of deliveries.
  obs::RunTelemetry telemetry;
};

/// Runs the asynchronous admission protocol — the message-passing
/// realization of P4 (SamplingProtocol's `admission` kind): users probe
/// their own resource, search random alternatives when unsatisfied, and
/// migrate only after an explicit GRANT from the target resource; resources
/// grant only if the post-admission load keeps the requester and all
/// currently satisfied residents satisfied, and notify residents that become
/// satisfied in place when departures free capacity. Feasible instances
/// quiesce (the event queue drains); infeasible ones are cut off at
/// max_events. Under an active fault
/// plan the loss-tolerant machinery (timeouts, bounded retries with
/// exponential backoff, stale/duplicate suppression, acknowledged leaves)
/// keeps feasible instances converging instead of deadlocking on a lost
/// GRANT; a user whose resource crashed detects the silence via timeouts and
/// re-enters search.
AsyncRunResult run_async_admission(const Instance& instance,
                                   const EngineConfig& config = {});

/// Runs the *optimistic* asynchronous protocol — the message-passing
/// realization of P2 (SamplingProtocol's `uniform` kind) with migration
/// probability `lambda`: a user that sees a satisfying load simply joins
/// (JOIN is not gated), so decisions taken on in-flight information can
/// overshoot, displace
/// residents, and re-trigger their searches. This is the asynchronous
/// herding failure mode the admission handshake removes; with λ well below
/// 1 the dynamics still settle in practice. Same config/termination/fault
/// semantics as run_async_admission.
AsyncRunResult run_async_optimistic(const Instance& instance, double lambda,
                                    const EngineConfig& config = {});

}  // namespace qoslb
