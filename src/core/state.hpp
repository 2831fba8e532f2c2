#pragma once

#include <optional>
#include <vector>

#include "core/instance.hpp"
#include "core/satisfaction_index.hpp"
#include "core/types.hpp"
#include "rng/xoshiro256.hpp"

namespace qoslb {

/// A complete assignment of users to resources plus the derived load vector.
/// Holds a non-owning reference to its Instance (which must outlive it).
/// move() maintains the loads incrementally in O(1).
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
class State {
 public:
  State(const Instance& instance, std::vector<ResourceId> assignment);

  /// Every user on resource `r`.
  static State all_on(const Instance& instance, ResourceId r);

  /// User u on resource u mod m (balanced deterministic start).
  static State round_robin(const Instance& instance);

  /// Independent uniform placement.
  static State random(const Instance& instance, Xoshiro256& rng);

  /// Sequential power-of-two-choices placement: each user samples two
  /// resources and joins the one with the smaller current load (ties toward
  /// the first sample). Classic O(log log n) max-load start.
  static State two_choices(const Instance& instance, Xoshiro256& rng);

  const Instance& instance() const { return *instance_; }
  std::size_t num_users() const { return assignment_.size(); }
  std::size_t num_resources() const { return loads_.size(); }

  ResourceId resource_of(UserId u) const;
  int load(ResourceId r) const;
  const std::vector<int>& loads() const { return loads_; }

  /// SoA views for the round hot path: the full assignment array and the
  /// per-user cached threshold-on-current-resource array (always equal to
  /// instance().threshold(u, resource_of(u)); check_invariants() audits the
  /// cache). Unlike resource_of(), reads through these views skip the
  /// per-call range check — callers iterate [0, num_users()).
  const std::vector<ResourceId>& assignment() const { return assignment_; }
  const std::vector<int>& current_thresholds() const {
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

  /// Moves user u to resource r (no-op allowed when r == current).
  void move(UserId u, ResourceId r);

  /// Quality currently experienced by user u.
  double quality_of(UserId u) const;

  /// True iff user u's requirement is met in the current state.
  bool satisfied(UserId u) const;

  /// Turns on the incremental satisfaction index (idempotent; an O(n + m)
  /// build with one counting-sort pass, no comparison sort). Afterwards
  /// count_satisfied() is O(1), the unsatisfied set can be read in
  /// ascending order, and every move() additionally maintains the index in
  /// three binary searches (plus one array insert the first time a
  /// threshold reaches a resource) and O(#satisfaction flips). The engine
  /// enables this on every state it drives; states used as plain containers
  /// can stay untracked.
  void enable_satisfaction_tracking();
  bool satisfaction_tracking() const { return index_.has_value(); }

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
  /// current load, or num_users() + 1 when none is: one binary search over
  /// the index's threshold buckets, skipping those emptied since the build.
  /// Requires satisfaction tracking.
  int satisfied_resident_min(ResourceId r) const;

  std::size_t count_satisfied() const;
  std::size_t count_unsatisfied() const { return num_users() - count_satisfied(); }

  int max_load() const;
  int min_load() const;

  /// Recomputes loads from the assignment and compares; additionally
  /// audits the satisfaction index (bucket lists and bitmap, see
  /// SatisfactionIndex::check_consistency) against the assignment and
  /// verifies no user resides on a dead resource. Throws on any mismatch.
  void check_invariants() const;

 private:
  // Only assignment_ and live_ reach the checkpoint; everything else is
  // derived from them (SnapshotV1::make_state reconstructs via rebind +
  // set_resource_live), which QL014 requires us to say explicitly.
  const Instance* instance_;  // qoslb-snapshot: transient
  std::vector<ResourceId> assignment_;
  std::vector<int> loads_;  // qoslb-snapshot: transient
  // threshold(u, assignment_[u])
  std::vector<int> current_thresholds_;  // qoslb-snapshot: transient
  std::vector<std::uint8_t> live_;
  // live ids, ascending
  std::vector<ResourceId> live_list_;  // qoslb-snapshot: transient
  std::optional<SatisfactionIndex<int>> index_;  // qoslb-snapshot: transient
};

}  // namespace qoslb
