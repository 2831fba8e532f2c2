// Property tests for the incremental satisfaction index (PR 3 tentpole):
// after long random move sequences the incrementally maintained unsatisfied
// set and satisfied counter must equal a from-scratch recompute — on the
// unit model (core/state) and the weighted model (core/weighted), where one
// move can flip a whole window of users on both endpoint resources. The set
// must also come out in ascending id order, through the refreshed view and
// the const visitor alike. The admission gate's per-resource resident
// minima, read from the index's threshold buckets, are checked the same way.
// Both bucket layouts are covered: flat-threshold instances within the
// m·|D| ≤ n guard take rank buckets, the rest sorted per-resource buckets,
// and the layout tests pin which instance takes which.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/generators.hpp"
#include "core/protocols/common.hpp"
#include "core/satisfaction.hpp"
#include "core/state.hpp"
#include "core/weighted/weighted_generators.hpp"
#include "core/weighted/weighted_state.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256.hpp"

namespace qoslb {
namespace {

constexpr std::size_t kMoves = 10000;
// A full unsatisfied-set comparison is O(n); doing it on a stride (plus once
// at the end) keeps the test fast while the O(1) counter is checked after
// every single move.
constexpr std::size_t kSetCheckStride = 250;

template <typename StateT>
std::vector<UserId> brute_force_unsatisfied(const StateT& state) {
  std::vector<UserId> unsat;
  for (UserId u = 0; u < state.num_users(); ++u)
    if (!state.satisfied(u)) unsat.push_back(u);
  return unsat;
}

template <typename StateT>
std::size_t brute_force_satisfied(const StateT& state) {
  std::size_t count = 0;
  for (UserId u = 0; u < state.num_users(); ++u)
    if (state.satisfied(u)) ++count;
  return count;
}

template <typename StateT>
void expect_index_matches_recompute(StateT& state) {
  const std::vector<UserId> view = state.unsatisfied_view();
  EXPECT_TRUE(std::adjacent_find(view.begin(), view.end(),
                                 std::greater_equal<>{}) == view.end())
      << "unsatisfied view not strictly ascending";
  EXPECT_EQ(view, brute_force_unsatisfied(state));
  std::vector<UserId> visited;
  const StateT& const_state = state;
  EXPECT_TRUE(const_state.for_each_unsatisfied([&](UserId u) {
    visited.push_back(u);
    return true;
  }));
  EXPECT_EQ(visited, view);
  if constexpr (std::is_same_v<StateT, State>) {
    EXPECT_EQ(unsatisfied_users(state), view);
  }
  state.check_invariants();
}

template <typename StateT>
void random_walk(StateT& state, Xoshiro256& rng) {
  const std::size_t n = state.num_users();
  const std::size_t m = state.num_resources();
  state.enable_satisfaction_tracking();
  expect_index_matches_recompute(state);
  for (std::size_t i = 0; i < kMoves; ++i) {
    const auto u = static_cast<UserId>(uniform_u64_below(rng, n));
    // Includes self-moves (r == current resource), which must be no-ops.
    const auto r = static_cast<ResourceId>(uniform_u64_below(rng, m));
    state.move(u, r);
    ASSERT_EQ(state.count_satisfied(), brute_force_satisfied(state))
        << "after move " << i << " of user " << u << " to " << r;
    if ((i + 1) % kSetCheckStride == 0) expect_index_matches_recompute(state);
  }
  expect_index_matches_recompute(state);
}

TEST(SatisfactionIndexProperty, UnitModelMatchesRecomputeOverRandomMoves) {
  for (const std::uint64_t seed : {1u, 7u, 99u}) {
    Xoshiro256 rng(seed);
    const Instance instance = make_uniform_feasible(512, 32, 0.3, 1.5, rng);
    State state = State::random(instance, rng);
    random_walk(state, rng);
  }
}

TEST(SatisfactionIndexProperty, UnitModelFromCongestedStart) {
  // all_on(0) makes resource 0 massively over threshold: the first moves
  // flip long runs of users at once, stressing the bucket-range updates.
  Xoshiro256 rng(5);
  const Instance instance = make_uniform_feasible(512, 16, 0.2, 1.5, rng);
  State state = State::all_on(instance, 0);
  random_walk(state, rng);
}

TEST(SatisfactionIndexProperty, WeightedModelMatchesRecomputeOverRandomMoves) {
  for (const std::uint64_t seed : {2u, 13u}) {
    Xoshiro256 rng(seed);
    const WeightedInstance instance =
        make_weighted_feasible(384, 16, 0.3, /*weight_classes=*/4,
                               /*skew=*/0.8, rng);
    WeightedState state = WeightedState::random(instance, rng);
    random_walk(state, rng);
  }
}

TEST(SatisfactionIndexProperty, WeightedModelFromCongestedStart) {
  Xoshiro256 rng(11);
  const WeightedInstance instance =
      make_weighted_feasible(384, 12, 0.25, /*weight_classes=*/5,
                             /*skew=*/0.5, rng);
  WeightedState state = WeightedState::all_on(instance, 0);
  random_walk(state, rng);
}

std::vector<ResourceId> assignment_of(const WeightedState& state) {
  std::vector<ResourceId> assignment(state.num_users());
  for (UserId u = 0; u < assignment.size(); ++u)
    assignment[u] = state.resource_of(u);
  return assignment;
}

/// Walks `tracked` (indexed from the start) and `late` (untracked) through
/// the same random moves, then turns tracking on for `late`: the rebuild
/// must reach the set the incremental updates reached, because the index is
/// a pure function of the current assignment.
template <typename StateT>
void expect_late_rebuild_agrees(StateT& tracked, StateT& late,
                                std::size_t moves, Xoshiro256& rng) {
  tracked.enable_satisfaction_tracking();
  for (std::size_t i = 0; i < moves; ++i) {
    const auto u =
        static_cast<UserId>(uniform_u64_below(rng, tracked.num_users()));
    const auto r = static_cast<ResourceId>(
        uniform_u64_below(rng, tracked.num_resources()));
    tracked.move(u, r);
    late.move(u, r);
  }
  late.enable_satisfaction_tracking();
  EXPECT_EQ(tracked.unsatisfied_view(), late.unsatisfied_view());
  EXPECT_EQ(tracked.count_satisfied(), late.count_satisfied());
  expect_index_matches_recompute(tracked);
  expect_index_matches_recompute(late);
}

TEST(SatisfactionIndexProperty, TrackingEnabledMidSequenceAgrees) {
  Xoshiro256 rng(21);
  const Instance instance = make_uniform_feasible(256, 16, 0.3, 1.5, rng);
  State tracked = State::round_robin(instance);
  State late = State::round_robin(instance);
  expect_late_rebuild_agrees(tracked, late, 2000, rng);
}

TEST(SatisfactionIndexProperty, WeightedTrackingEnabledMidSequenceAgrees) {
  Xoshiro256 rng(22);
  const WeightedInstance instance =
      make_weighted_feasible(256, 16, 0.3, /*weight_classes=*/4,
                             /*skew=*/0.8, rng);
  WeightedState tracked = WeightedState::random(instance, rng);
  WeightedState late(instance, assignment_of(tracked));
  expect_late_rebuild_agrees(tracked, late, 2000, rng);
}

TEST(SatisfactionIndexProperty, WeightedThresholdRangeWiderThanOneRadixDigit) {
  // Thresholds drawn across [1, W] for a total weight W far above n: the
  // build cannot bucket them in one n-wide counting pass, so it takes the
  // multi-pass radix path. Its result must match a recompute, and a
  // rebuild after the same moves.
  constexpr std::size_t kUsers = 320;
  constexpr std::size_t kResources = 8;
  Xoshiro256 rng(23);
  std::vector<std::uint32_t> weights(kUsers);
  std::uint64_t total = 0;
  for (auto& w : weights) {
    w = std::uint32_t{1} << uniform_u64_below(rng, 5);
    total += w;
  }
  std::vector<double> requirements(kUsers);
  for (auto& q : requirements)
    q = 1.0 / static_cast<double>(1 + uniform_u64_below(rng, total));
  std::vector<double> capacities(kResources, 1.0);
  capacities[1] = 2.0;
  const WeightedInstance instance(std::move(capacities),
                                  std::move(requirements), std::move(weights));
  WeightedState tracked = WeightedState::random(instance, rng);
  std::int64_t lo = instance.threshold(0, tracked.resource_of(0));
  std::int64_t hi = lo;
  for (UserId u = 0; u < kUsers; ++u) {
    lo = std::min(lo, instance.threshold(u, tracked.resource_of(u)));
    hi = std::max(hi, instance.threshold(u, tracked.resource_of(u)));
  }
  ASSERT_GT(hi - lo, static_cast<std::int64_t>(2 * kUsers));
  WeightedState late(instance, assignment_of(tracked));
  expect_late_rebuild_agrees(tracked, late, 3000, rng);
}

/// The admission gate's resident minima recomputed from Instance::threshold:
/// the smallest threshold among each resource's satisfied residents, n + 1
/// where none is satisfied.
std::vector<int> brute_force_resident_min(const State& state) {
  std::vector<int> expected(state.num_resources(),
                            static_cast<int>(state.num_users()) + 1);
  for (UserId u = 0; u < state.num_users(); ++u) {
    const ResourceId r = state.resource_of(u);
    const int t = state.instance().threshold(u, r);
    if (t >= state.load(r)) expected[r] = std::min(expected[r], t);
  }
  return expected;
}

/// Moves a random user to a random resource it can reach (self-moves
/// included); draws that land on a dead resource are skipped.
void random_reachable_move(State& state, Xoshiro256& rng) {
  const Instance& instance = state.instance();
  const auto u =
      static_cast<UserId>(uniform_u64_below(rng, state.num_users()));
  ResourceId r;
  if (instance.restricted()) {
    const auto reach = instance.reachable(u);
    r = reach[uniform_u64_below(rng, reach.size())];
  } else {
    r = static_cast<ResourceId>(
        uniform_u64_below(rng, state.num_resources()));
  }
  if (state.resource_live(r)) state.move(u, r);
}

/// Where the index and a recompute disagree on the unsatisfied view, the
/// satisfied count or the resident minima; empty when they agree.
std::string index_mismatch(State& state) {
  if (state.unsatisfied_view() != brute_force_unsatisfied(state))
    return "unsatisfied view";
  if (state.count_satisfied() != brute_force_satisfied(state))
    return "satisfied count";
  if (resident_min_thresholds(state) != brute_force_resident_min(state))
    return "resident minima";
  return "";
}

/// Random moves, then a kill of the most loaded resource with its residents
/// evicted one by one to their first live reachable resource, then a revive
/// and more moves. After every single move the unsatisfied view, the
/// satisfied count and the resident minima must match the recompute.
void check_move_by_move(State& state, Xoshiro256& rng) {
  state.enable_satisfaction_tracking();
  ASSERT_GT(state.count_unsatisfied(), 0u) << "no unsatisfied resident";
  ASSERT_EQ(index_mismatch(state), "") << "after the build";
  for (std::size_t i = 0; i < 2000; ++i) {
    random_reachable_move(state, rng);
    ASSERT_EQ(index_mismatch(state), "") << "after move " << i;
  }
  const auto& loads = state.loads();
  const auto dead = static_cast<ResourceId>(
      std::max_element(loads.begin(), loads.end()) - loads.begin());
  state.set_resource_live(dead, false);
  ASSERT_EQ(index_mismatch(state), "") << "after the kill";
  const Instance& instance = state.instance();
  for (UserId u = 0; u < state.num_users(); ++u) {
    if (state.resource_of(u) != dead) continue;
    for (ResourceId r = 0; r < state.num_resources(); ++r)
      if (state.resource_live(r) &&
          (!instance.restricted() || instance.rate(u, r) > 0.0)) {
        state.move(u, r);
        break;
      }
    ASSERT_EQ(index_mismatch(state), "") << "after evicting user " << u;
  }
  ASSERT_EQ(state.load(dead), 0);
  state.check_invariants();
  state.set_resource_live(dead, true);
  ASSERT_EQ(index_mismatch(state), "") << "after the revive";
  for (std::size_t i = 0; i < 500; ++i) {
    random_reachable_move(state, rng);
    ASSERT_EQ(index_mismatch(state), "") << "after revived move " << i;
  }
  state.check_invariants();
}

/// A base-model instance (identical unit capacities, uniform rates, so flat
/// thresholds) whose users have exactly the given thresholds.
Instance flat_instance(std::size_t m, const std::vector<int>& thresholds) {
  std::vector<double> requirements;
  for (const int t : thresholds)
    requirements.push_back(1.0 / static_cast<double>(t));
  return Instance::identical(m, 1.0, std::move(requirements));
}

/// Whether `instance`'s tracked round-robin state takes rank buckets; the
/// audit must pass in either layout.
bool takes_rank_buckets(const Instance& instance) {
  State state = State::round_robin(instance);
  EXPECT_FALSE(state.rank_buckets()) << "untracked state reports a layout";
  state.enable_satisfaction_tracking();
  state.check_invariants();
  return state.rank_buckets();
}

TEST(IndexLayout, RankBucketsExactlyWhenFlatAndWithinTheGuard) {
  // 12 users over |D| = 4 distinct thresholds: m·|D| ≤ n up to m = 3.
  const std::vector<int> four = {5, 6, 7, 8, 8, 7, 6, 5, 5, 6, 7, 8};
  EXPECT_TRUE(takes_rank_buckets(flat_instance(1, four)));
  EXPECT_TRUE(takes_rank_buckets(flat_instance(3, four)));
  EXPECT_FALSE(takes_rank_buckets(flat_instance(4, four)));
  // One more distinct threshold: 3 · 5 > 12.
  std::vector<int> five = four;
  five[0] = 9;
  EXPECT_FALSE(takes_rank_buckets(flat_instance(3, five)));
  EXPECT_TRUE(takes_rank_buckets(flat_instance(2, five)));
  // Thresholds that depend on the resource never take rank buckets, even
  // far inside the guard.
  std::vector<double> requirements(12, 1.0 / 6.0);
  EXPECT_FALSE(takes_rank_buckets(
      Instance(std::vector<double>{1.0, 2.0}, requirements)));
  Xoshiro256 rng(35);
  EXPECT_FALSE(takes_rank_buckets(make_zipf_rates(512, 4, 0.1, 1.2, rng)));
  EXPECT_FALSE(takes_rank_buckets(
      make_clustered_bipartite(512, 4, /*clusters=*/2, /*extra=*/1, 0.1, rng)));
  // Nor does the weighted model.
  const WeightedInstance weighted(std::vector<double>{1.0},
                                  std::vector<double>(12, 1.0 / 6.0),
                                  std::vector<std::uint32_t>(12, 1));
  WeightedState weighted_state = WeightedState::round_robin(weighted);
  weighted_state.enable_satisfaction_tracking();
  EXPECT_FALSE(weighted_state.rank_buckets());
  // The perfbench flood-dense shape (n = 5e4, m = 50, ~528 thresholds)
  // takes rank buckets.
  EXPECT_TRUE(takes_rank_buckets(
      make_uniform_feasible(50000, 50, 0.05, 1.5, rng)));
}

TEST(IndexLayout, ZeroThresholdsAndTheTopOfTheRangeFlipLikeAnyOther) {
  // Threshold 0 (never satisfiable) and threshold n (satisfied at any
  // load) sit at the two ends of the rank table; loads sweep past both.
  // D = {0, 1, 3, 8} over 8 users and 2 resources: m·|D| = n.
  const std::vector<int> thresholds = {1, 8, 8, 3, 1, 8, 1, 3};
  std::vector<double> requirements;
  for (const int t : thresholds)
    requirements.push_back(1.0 / static_cast<double>(t));
  requirements[4] = 2.0;  // ⌊1 / 2⌋ = 0
  const Instance instance = Instance::identical(2, 1.0, requirements);
  ASSERT_EQ(instance.threshold(4, 0), 0);
  ASSERT_EQ(instance.threshold(1, 0), 8);
  State state = State::all_on(instance, 0);
  state.enable_satisfaction_tracking();
  ASSERT_TRUE(state.rank_buckets());
  ASSERT_EQ(index_mismatch(state), "");
  for (UserId u = 0; u < state.num_users(); ++u) {
    state.move(u, 1);
    ASSERT_EQ(index_mismatch(state), "") << "after moving user " << u;
  }
  for (UserId u = 0; u < state.num_users(); u += 2) {
    state.move(u, 0);
    ASSERT_EQ(index_mismatch(state), "")
        << "after moving user " << u << " back";
  }
  state.check_invariants();
}

TEST(ResidentMinProperty, SkipsBucketsEmptiedAboveTheLoad) {
  // Moving away resource 0's satisfied resident of least threshold, again
  // and again, empties its lowest buckets at or above the falling load.
  // Those buckets stay in the index until the next rebuild, so the minimum
  // lookup must skip them.
  Xoshiro256 rng(6);
  const Instance instance = make_zipf_rates(512, 16, 0.1, 1.2, rng);
  State state = State::round_robin(instance);
  state.enable_satisfaction_tracking();
  const int none = static_cast<int>(state.num_users()) + 1;
  std::size_t moved = 0;
  for (int min = brute_force_resident_min(state)[0]; min != none;
       min = brute_force_resident_min(state)[0]) {
    UserId victim = kNoUser;
    for (UserId u = 0; u < state.num_users() && victim == kNoUser; ++u)
      if (state.resource_of(u) == 0 && instance.threshold(u, 0) == min)
        victim = u;
    ASSERT_NE(victim, kNoUser);
    state.move(victim, 1);
    ++moved;
    ASSERT_EQ(resident_min_thresholds(state), brute_force_resident_min(state))
        << "after moving away user " << victim << " of threshold " << min;
  }
  EXPECT_GE(moved, 4u);
  state.check_invariants();
}

TEST(ResidentMinProperty, UniformRatesMatchRecompute) {
  // Flat thresholds within the m·|D| ≤ n guard: rank buckets, from a random
  // start and from all users on one resource.
  for (const std::uint64_t seed : {3u, 17u, 36u}) {
    Xoshiro256 rng(seed);
    const Instance instance = make_uniform_feasible(512, 32, 0.1, 1.5, rng);
    State state = seed == 36 ? State::all_on(instance, 0)
                             : State::random(instance, rng);
    state.enable_satisfaction_tracking();
    ASSERT_TRUE(state.rank_buckets());
    check_move_by_move(state, rng);
  }
}

TEST(ResidentMinProperty, FlatPastTheRankGuardMatchesRecompute) {
  // Flat thresholds, but m·|D| > n (64 resources, up to 11 distinct
  // thresholds, 256 users): sorted per-resource buckets.
  for (const std::uint64_t seed : {33u, 34u}) {
    Xoshiro256 rng(seed);
    const Instance instance = make_uniform_feasible(256, 64, 0.1, 3.0, rng);
    ASSERT_TRUE(instance.flat_thresholds_available());
    State state = seed == 34 ? State::all_on(instance, 0)
                             : State::random(instance, rng);
    state.enable_satisfaction_tracking();
    ASSERT_FALSE(state.rank_buckets());
    check_move_by_move(state, rng);
  }
}

TEST(ResidentMinProperty, ZipfRatesMatchRecompute) {
  for (const std::uint64_t seed : {4u, 18u}) {
    Xoshiro256 rng(seed);
    const Instance instance = make_zipf_rates(512, 32, 0.1, 1.2, rng);
    State state = State::random(instance, rng);
    check_move_by_move(state, rng);
  }
}

TEST(ResidentMinProperty, ClusteredBipartiteMatchesRecompute) {
  for (const std::uint64_t seed : {5u, 19u}) {
    Xoshiro256 rng(seed);
    const Instance instance = make_clustered_bipartite(
        512, 32, /*clusters=*/4, /*extra=*/2, 0.1, rng);
    State state = State::random(instance, rng);
    check_move_by_move(state, rng);
  }
}

}  // namespace
}  // namespace qoslb
