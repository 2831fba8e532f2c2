#pragma once

#include <span>
#include <utility>
#include <vector>

#include "core/protocol.hpp"  // MigrationRequest / MigrationBuffer
#include "core/state.hpp"
#include "core/types.hpp"
#include "rng/distributions.hpp"
#include "core/accounting.hpp"

namespace qoslb {

/// One probe: the drawn resource and the prober's threshold on it
/// (kNoResource and 0 for a failed probe).
struct Probe {
  ResourceId resource = kNoResource;
  int threshold = 0;
};

/// Draws one probe target for user `u` and returns it with
/// threshold(u, target). Unrestricted instances keep the historical
/// whole-live-list draw bit-for-bit and look the threshold up; restricted
/// ones draw an entry of u's reachable set instead and read the threshold
/// from the same entry of reachable_thresholds(u), with no search. A
/// restricted draw that lands on a dead resource is a failed probe,
/// mirroring the nbr-* dead-neighbor idiom, so u's stream position advances
/// identically whether or not churn killed anything. Every sampling
/// protocol whose kTraits set `restricted` must draw through this helper;
/// tests/core_rate_model_test.cpp checks it for every restricted kind.
template <typename Rng>
Probe sample_reachable(const State& state, UserId u, Rng& rng) {
  const Instance& instance = state.instance();
  if (!instance.restricted()) {
    const auto& live = state.live_resources();
    const ResourceId r = live[uniform_u64_below(rng, live.size())];
    return {r, instance.threshold(u, r)};
  }
  const auto reach = instance.reachable(u);
  const std::size_t k = uniform_u64_below(rng, reach.size());
  const ResourceId r = reach[k];
  if (!state.resource_live(r)) return {};
  return {r, instance.reachable_thresholds(u)[k]};
}

/// True iff `r` is a valid migration target for `u`: live, and reachable
/// when the instance is restricted. Fixed-candidate protocols (nbr-*) gate
/// each probe through this instead of bare resource_live().
inline bool reachable_target(const State& state, UserId u, ResourceId r) {
  if (!state.resource_live(r)) return false;
  return !state.instance().restricted() || state.instance().rate(u, r) > 0.0;
}

/// Filters `users[0..count)` down to the users unsatisfied against the
/// round-boundary `load_snapshot`, preserving ascending input order, via the
/// branchless SoA scan (core/satisfaction_scan.hpp). This hoists the
/// per-user "satisfied -> neither act nor draw" branch out of the decision
/// loop: the survivors are exactly the users the historical
///     if (snapshot[current] <= threshold(u, current)) continue;
/// prefilter would have reached, so draws and request-append order are
/// bit-identical. Returns a view into thread-local scratch — valid until the
/// calling thread's next prefilter (each engine shard runs on one thread, so
/// shard-concurrent rounds are safe).
std::span<const UserId> unsatisfied_prefilter(
    const State& state, const std::vector<int>& load_snapshot,
    const UserId* users, std::size_t count);

/// The loop head of every sharded protocol's step_users(): calls
/// body(u, rng) for each user of users[0..count) that acts this round, in
/// input order, where rng is u's own (seed, round, user) stream. The acting
/// users are the unsatisfied_prefilter() survivors for an active-set
/// protocol, whose satisfied users neither act nor draw, and all of
/// users[0..count) otherwise. Their streams are keyed RoundRng::kChunk at a
/// time by RoundRng::user_streams() into a stack buffer, and each draws what
/// user_stream(u) would, so the keying path cannot move a realization.
/// Each acting user requests at most once, so from a buffer's second round
/// on `out.requests` first reserves room for all of them: a later round
/// allocates there only when its acting set outgrows the buffer. The first
/// round grows the buffer by its requests alone; reserving every shard's
/// bound up front took perfbench's admission-restricted set-up 50% slower
/// (docs/performance.md, "The AVX-512 kernel").
template <typename Body>
void for_each_acting_user(const Protocol& protocol, const State& state,
                          const std::vector<int>& load_snapshot,
                          const UserId* users, std::size_t count,
                          MigrationBuffer& out, const RoundRng& streams,
                          Body&& body) {
  const std::span<const UserId> acting =
      protocol.active_set_compatible()
          ? unsatisfied_prefilter(state, load_snapshot, users, count)
          : std::span<const UserId>(users, count);
  if (out.requests.capacity() != 0) out.requests.reserve(acting.size());
  streams.for_each_stream(acting, body);
}

/// Merges one round's shard buffers into `out` in shard order — bit-identical
/// to sequential concatenation, hence independent of which worker ran which
/// shard. Two passes: size the destination by an exclusive prefix sum of the
/// shard sizes, then copy each shard into its slot. `out` is caller-owned
/// scratch (cleared here, capacity reused across rounds).
void merge_shard_requests(const std::vector<MigrationBuffer>& shards,
                          std::vector<MigrationRequest>& out);

/// Applies optimistic (ungated) migrations; every request is executed.
/// Takes either model's state; instantiated for both in
/// core/protocols/common.cpp.
template <typename Model>
void apply_all(BasicState<Model>& state,
               const std::vector<MigrationRequest>& requests,
               Counters& counters);

/// Resource-gated admission (protocol P4/P5-admission of DESIGN.md): each
/// resource sorts its requesters by descending threshold on it (ties to the
/// lower user id) and admits the longest prefix whose post-admission load
/// keeps both the admitted requesters and the residents satisfied at the
/// round boundary — in the unit model
///     load + k ≤ min(resident_min_threshold, k-th admitted threshold),
/// and in the weighted model the same with k replaced by the prefix's total
/// weight (a heavy requester can end the prefix while lighter ones behind it
/// would still fit: fragmentation, E13). Rejected requesters stay where they
/// are; grants + rejects == requests. Turns on satisfaction tracking (a
/// no-op under Engine::run); a round then costs O(m log n + R log R) for R
/// requests — one threshold lookup per request, m index lookups for the
/// resident minima. Takes either model's state; instantiated for both in
/// core/protocols/common.cpp.
template <typename Model>
void apply_with_admission(BasicState<Model>& state,
                          const std::vector<MigrationRequest>& requests,
                          Counters& counters);

/// Minimum threshold among the *currently satisfied* residents of each
/// resource (total weight + 1, i.e. num_users()+1 in the unit model, when
/// there is none: no resident constraint). Unsatisfied residents do not
/// gate admission — they cannot be hurt further. One
/// satisfied_resident_min() lookup per resource; requires satisfaction
/// tracking.
template <typename Model>
std::vector<typename Model::Load> resident_min_thresholds(
    const BasicState<Model>& state);

/// The same minima written into `out` (resized to num_resources()), which
/// keeps its capacity across calls.
template <typename Model>
void resident_min_thresholds(const BasicState<Model>& state,
                             std::vector<typename Model::Load>& out);

}  // namespace qoslb
