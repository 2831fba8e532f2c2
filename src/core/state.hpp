#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/instance.hpp"
#include "core/satisfaction_index.hpp"
#include "core/types.hpp"
#include "rng/xoshiro256.hpp"

namespace qoslb {

/// A complete assignment of users to resources plus the derived load vector.
/// Holds a non-owning reference to its instance (which must outlive it).
/// move() maintains the loads incrementally in O(1).
///
/// `Model` is the instance type and fixes the unit load is counted in:
/// `Instance` counts users (`Load` = int, every user weighs 1), and
/// `WeightedInstance` sums integer user weights (`Load` = std::int64_t). A
/// user's weight enters only where a load is summed or compared; everything
/// else is the same code for both models (`State` and `WeightedState`).
///
/// The storage is structure-of-arrays (docs/performance.md): three parallel
/// contiguous arrays — `assignment_[u]`, `loads_[r]`, and
/// `current_thresholds_[u]` (user u's threshold on its *current* resource,
/// maintained by move()) — so the satisfaction predicate is one branchless
/// comparison over streamed memory,
///
///     satisfied(u)  <=>  loads_[assignment_[u]] <= current_thresholds_[u],
///
/// and whole-population checks vectorize (core/satisfaction_scan.hpp). The
/// raw views below hand these arrays to the round hot path; they are
/// read-only and valid until the next mutating call.
template <typename Model>
class BasicState {
 public:
  using Load = typename Model::Load;

  BasicState(const Model& instance, std::vector<ResourceId> assignment);

  /// Every user on resource `r`.
  static BasicState all_on(const Model& instance, ResourceId r);

  /// User u on resource u mod m (balanced deterministic start).
  static BasicState round_robin(const Model& instance);

  /// Independent uniform placement.
  static BasicState random(const Model& instance, Xoshiro256& rng);

  /// Sequential power-of-two-choices placement: each user samples two
  /// resources and joins the one with fewer users so far (ties toward the
  /// first sample). Classic O(log log n) max-load start.
  static BasicState two_choices(const Model& instance, Xoshiro256& rng);

  const Model& instance() const { return *instance_; }
  std::size_t num_users() const { return assignment_.size(); }
  std::size_t num_resources() const { return loads_.size(); }

  ResourceId resource_of(UserId u) const;
  Load load(ResourceId r) const;
  const std::vector<Load>& loads() const { return loads_; }

  /// SoA views for the round hot path: the full assignment array and the
  /// per-user cached threshold-on-current-resource array (always equal to
  /// instance().threshold(u, resource_of(u)); check_invariants() audits the
  /// cache). Unlike resource_of(), reads through these views skip the
  /// per-call range check — callers iterate [0, num_users()).
  const std::vector<ResourceId>& assignment() const { return assignment_; }
  const std::vector<Load>& current_thresholds() const {
    return current_thresholds_;
  }

  /// Resource liveness (mid-run churn, docs/faults.md). Every resource
  /// starts live; a dead resource stays in the load vector (id-stable) but
  /// is excluded from protocol sampling and deviation checks. Flipping
  /// liveness never touches loads — the engine evicts residents explicitly.
  bool resource_live(ResourceId r) const;
  std::size_t num_live_resources() const { return live_list_.size(); }

  /// The live resource ids, ascending. With every resource live this is the
  /// identity list [0, m), so sampling `live[uniform(live.size())]` draws
  /// bit-identically to the historical `uniform(num_resources())`.
  const std::vector<ResourceId>& live_resources() const { return live_list_; }

  /// Flips resource `r`'s liveness. Rejects no-op flips (they indicate a
  /// schedule bug) and killing the last live resource.
  void set_resource_live(ResourceId r, bool live);

  /// Moves user u to resource r (no-op allowed when r == current); u's
  /// weight leaves the old resource's load and joins r's.
  void move(UserId u, ResourceId r);

  /// Quality currently experienced by user u.
  double quality_of(UserId u) const;

  /// True iff user u's requirement is met in the current state.
  bool satisfied(UserId u) const;

  /// Turns on the incremental satisfaction index (idempotent; an O(n + m)
  /// build with no comparison sort). Afterwards count_satisfied() is O(1),
  /// the unsatisfied set can be read in ascending order, and every move()
  /// additionally maintains the index in three bucket lookups and
  /// O(#satisfaction flips) — a weighted move sweeps a window as wide as
  /// the mover's weight, so one move can flip many users. The instance
  /// picks the layout (SatisfactionIndex): rank buckets, where a lookup is
  /// one table load, when its thresholds do not depend on the resource
  /// (Instance::flat_thresholds_available()) and m·|D| ≤ n for its distinct
  /// thresholds D; otherwise, and always in the weighted model, sorted
  /// per-resource buckets, where it is a binary search. The engine enables
  /// this on every state it drives; states used as plain containers can
  /// stay untracked.
  void enable_satisfaction_tracking();
  bool satisfaction_tracking() const { return index_.has_value(); }

  /// True when the satisfaction index uses rank buckets (see
  /// enable_satisfaction_tracking()); false without tracking.
  bool rank_buckets() const { return index_ && index_->rank_buckets(); }

  /// The currently unsatisfied users, ascending: one O(|unsatisfied| +
  /// n/4096) walk of the index's bitmap into a buffer the index owns. The
  /// reference stays valid, and its contents fixed, until the next call;
  /// moves do not touch it. Non-const because it refills that buffer;
  /// const readers use for_each_unsatisfied(). Requires satisfaction
  /// tracking.
  const std::vector<UserId>& unsatisfied_view();

  /// Calls `fn(u)` for every unsatisfied user in ascending id order until
  /// `fn` returns false; returns false iff it stopped early. A walk of the
  /// index's bitmap, O(|unsatisfied| + n/4096), with satisfaction tracking;
  /// an O(n) scan without.
  template <typename Fn>
  bool for_each_unsatisfied(Fn&& fn) const {
    if (index_) return index_->for_each_unsatisfied(fn);
    for (UserId u = 0; u < num_users(); ++u)
      if (!satisfied(u) && !fn(u)) return false;
    return true;
  }

  /// Minimum threshold among the residents of `r` that are satisfied at its
  /// current load, or total weight + 1 (n + 1 in the unit model) when none
  /// is: one bucket lookup in the index (a table load or a binary search),
  /// then a skip over buckets emptied since the build. Requires
  /// satisfaction tracking.
  Load satisfied_resident_min(ResourceId r) const;

  std::size_t count_satisfied() const;
  std::size_t count_unsatisfied() const { return num_users() - count_satisfied(); }

  /// Total weight of the satisfied users (the weighted welfare measure;
  /// count_satisfied() in the unit model).
  std::uint64_t satisfied_weight() const;

  Load max_load() const;
  Load min_load() const;

  /// Recomputes loads from the assignment and compares; additionally
  /// audits the threshold cache, the satisfaction index (bucket lists and
  /// bitmap, see SatisfactionIndex::check_consistency) and liveness: no
  /// user resides on a dead or unreachable resource. Throws on any mismatch.
  void check_invariants() const;

 private:
  // Only assignment_ and live_ reach the checkpoint; everything else is
  // derived from them (SnapshotV1::make_state reconstructs via rebind +
  // set_resource_live), which QL014 requires us to say explicitly.
  const Model* instance_;  // qoslb-snapshot: transient
  std::vector<ResourceId> assignment_;
  std::vector<Load> loads_;  // qoslb-snapshot: transient
  // threshold(u, assignment_[u])
  std::vector<Load> current_thresholds_;  // qoslb-snapshot: transient
  std::vector<std::uint8_t> live_;
  // live ids, ascending
  std::vector<ResourceId> live_list_;  // qoslb-snapshot: transient
  std::optional<SatisfactionIndex<Load>> index_;  // qoslb-snapshot: transient
};

/// The unit model's state: a load counts users. The member definitions are
/// explicitly instantiated for both models in core/state.cpp;
/// core/weighted/weighted_state.hpp names the weighted one.
using State = BasicState<Instance>;

}  // namespace qoslb
