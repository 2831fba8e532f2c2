#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/types.hpp"
#include "util/check.hpp"

namespace qoslb {

/// Incrementally-maintained satisfaction index: a per-resource user index
/// bucketed by threshold, the set of currently unsatisfied users, and an
/// O(1) satisfied counter. This is the substrate of the engine's active-set
/// execution mode (docs/performance.md).
///
/// The structural fact it exploits: user `u` sitting on resource `r` with
/// threshold `t = threshold(u, r)` is satisfied iff `load(r) <= t`, so a
/// committed move only changes loads on its two endpoint resources — and of
/// the users indexed there, exactly the ones whose threshold lies in the
/// half-open window the load change swept over flip satisfaction. Keeping
/// each resource's residents bucketed by threshold (an ordered map of
/// threshold -> users) turns that window into a contiguous map range, so
/// maintenance is O(log m_r + #flips) per move, and the total flip work over
/// a run is bounded by the run's true satisfaction churn.
///
/// `Load` is the load/threshold arithmetic type: `int` for the unit model
/// (every move sweeps a width-1 window) and `std::int64_t` for the weighted
/// model (window width = the mover's weight).
template <typename Load>
class SatisfactionIndex {
 public:
  /// Builds the index from scratch in O(n log n): `resource_of(u)` and
  /// `threshold_of(u)` describe the current assignment (the threshold on
  /// the user's *current* resource), `load_of(r)` the current loads.
  template <typename ResourceOf, typename ThresholdOf, typename LoadOf>
  void rebuild(std::size_t num_users, std::size_t num_resources,
               const ResourceOf& resource_of, const ThresholdOf& threshold_of,
               const LoadOf& load_of) {
    num_users_ = num_users;
    buckets_.assign(num_resources, {});
    bucket_pos_.assign(num_users, 0);
    unsat_.clear();
    unsat_pos_.assign(num_users, kNoSlot);
    for (UserId u = 0; u < num_users; ++u) {
      const ResourceId r = resource_of(u);
      const Load t = threshold_of(u);
      insert_bucket(r, t, u);
      if (load_of(r) > t) set_status(u, /*satisfied=*/false);
    }
  }

  /// Structure-of-arrays rebuild: the host state hands its contiguous
  /// assignment / cached-threshold / load arrays directly (State's SoA
  /// layout, docs/performance.md), so the build streams three flat arrays
  /// instead of bouncing through per-user callbacks. Equivalent to the
  /// callback overload by construction.
  void rebuild(std::size_t num_users, std::size_t num_resources,
               const ResourceId* resource_of, const Load* threshold_of,
               const Load* load_of) {
    rebuild(
        num_users, num_resources, [&](UserId u) { return resource_of[u]; },
        [&](UserId u) { return threshold_of[u]; },
        [&](ResourceId r) { return load_of[r]; });
  }

  /// Reflects a committed move of `u` from `src` to `dst` (src != dst) —
  /// call *after* the host state updated its loads. `*_load_after` are the
  /// post-move loads and `delta` the load shift (1 in the unit model, u's
  /// weight otherwise). Cost: two bucket updates plus one step per user
  /// whose satisfaction actually changed.
  void on_move(UserId u, ResourceId src, Load threshold_on_src, ResourceId dst,
               Load threshold_on_dst, Load src_load_after, Load dst_load_after,
               Load delta) {
    erase_bucket(src, threshold_on_src, u);
    // src's load fell from src_load_after + delta to src_load_after: the
    // users with threshold in [src_load_after, src_load_after + delta) were
    // unsatisfied before and are satisfied now.
    flip_range(src, src_load_after, src_load_after + delta, /*satisfied=*/true);
    // dst's load rose from dst_load_after - delta to dst_load_after: the
    // users with threshold in [dst_load_after - delta, dst_load_after) were
    // satisfied before and are unsatisfied now.
    flip_range(dst, dst_load_after - delta, dst_load_after,
               /*satisfied=*/false);
    insert_bucket(dst, threshold_on_dst, u);
    // The mover itself is re-evaluated on its new resource (set_status is
    // idempotent, so it does not matter what the flips above did to u).
    set_status(u, dst_load_after <= threshold_on_dst);
  }

  std::size_t num_users() const { return num_users_; }
  std::size_t satisfied_count() const { return num_users_ - unsat_.size(); }

  /// The currently unsatisfied users, in unspecified order. Stable between
  /// moves; any move may permute it.
  const std::vector<UserId>& unsatisfied() const { return unsat_; }

  bool is_unsatisfied(UserId u) const { return unsat_pos_[u] != kNoSlot; }

  /// The smallest threshold bucket ≥ `load` on resource `r`, or `none` when
  /// there is none. At `load` = r's current load this is the minimum
  /// threshold among r's satisfied residents. One map lower_bound.
  Load min_threshold_at_least(ResourceId r, Load load, Load none) const {
    const auto it = buckets_[r].lower_bound(load);
    return it == buckets_[r].end() ? none : it->first;
  }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  using Bucket = std::vector<UserId>;

  void insert_bucket(ResourceId r, Load t, UserId u) {
    Bucket& bucket = buckets_[r][t];
    bucket_pos_[u] = static_cast<std::uint32_t>(bucket.size());
    bucket.push_back(u);
  }

  void erase_bucket(ResourceId r, Load t, UserId u) {
    const auto it = buckets_[r].find(t);
    QOSLB_CHECK(it != buckets_[r].end(),
                "satisfaction index: user missing from threshold bucket");
    Bucket& bucket = it->second;
    const std::uint32_t pos = bucket_pos_[u];
    const UserId moved = bucket.back();
    bucket[pos] = moved;
    bucket_pos_[moved] = pos;
    bucket.pop_back();
    if (bucket.empty()) buckets_[r].erase(it);
  }

  /// Marks every user of resource `r` with threshold in [lo, hi).
  void flip_range(ResourceId r, Load lo, Load hi, bool satisfied) {
    auto& buckets = buckets_[r];
    for (auto it = buckets.lower_bound(lo); it != buckets.end() && it->first < hi;
         ++it)
      for (const UserId v : it->second) set_status(v, satisfied);
  }

  /// Idempotent membership update of the unsatisfied swap-remove set.
  void set_status(UserId u, bool satisfied) {
    const std::uint32_t pos = unsat_pos_[u];
    if (satisfied) {
      if (pos == kNoSlot) return;
      const UserId moved = unsat_.back();
      unsat_[pos] = moved;
      unsat_pos_[moved] = pos;
      unsat_.pop_back();
      unsat_pos_[u] = kNoSlot;
    } else {
      if (pos != kNoSlot) return;
      unsat_pos_[u] = static_cast<std::uint32_t>(unsat_.size());
      unsat_.push_back(u);
    }
  }

  std::size_t num_users_ = 0;
  /// buckets_[r]: threshold -> users currently resident on r with exactly
  /// that threshold there.
  std::vector<std::map<Load, Bucket>> buckets_;
  std::vector<std::uint32_t> bucket_pos_;  // u's slot in its bucket
  std::vector<UserId> unsat_;              // swap-remove set
  std::vector<std::uint32_t> unsat_pos_;   // u's slot in unsat_, kNoSlot if satisfied
};

}  // namespace qoslb
