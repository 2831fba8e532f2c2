#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace qoslb {

/// What a scheduled churn event does to its resource.
enum class ChurnKind : std::uint8_t { kFail, kRecover };

/// One scheduled liveness flip, applied at the boundary of round `round`
/// before any user of that round decides.
struct ChurnEvent {
  std::uint64_t round = 0;
  ResourceId resource = kNoResource;
  ChurnKind kind = ChurnKind::kFail;
};

/// Deterministic in-run resource churn schedule (docs/faults.md). At each
/// listed round boundary the engine applies the round's events in list
/// order: kFail marks the resource dead, evicts its residents onto the
/// surviving live resources (targets drawn from a dedicated churn
/// substream keyed by (master seed, round, user), so the realization stays
/// thread- and mode-invariant), and removes it from every protocol's
/// sampling set; kRecover returns the resource to the sampling set. A run
/// with pending churn events never terminates as converged — the remaining
/// schedule must play out first.
struct ChurnPlan {
  std::vector<ChurnEvent> events;

  bool any() const { return !events.empty(); }

  // Chainable conveniences; events must be appended in round order.
  ChurnPlan& fail(std::uint64_t round, ResourceId resource);
  ChurnPlan& recover(std::uint64_t round, ResourceId resource);

  /// Statically checks the schedule against a world with `num_resources`
  /// resources by simulating liveness: events sorted by round, every
  /// resource in range, failures hit a live resource and leave at least one
  /// survivor, recoveries hit a dead one. Throws std::invalid_argument on
  /// the first violation.
  void validate(std::size_t num_resources) const;
};

/// Aggregate graceful-degradation metrics of a churned run, exported as
/// `churn/*` through src/obs/ and surfaced in EngineResult::churn. A "dip"
/// opens at a failure event (baseline = satisfied count just before it) and
/// closes once the satisfied count climbs back to the baseline.
struct ChurnStats {
  std::uint64_t failures = 0;    // kFail events applied
  std::uint64_t recoveries = 0;  // kRecover events applied
  std::uint64_t evicted = 0;     // users relocated off dead resources
  /// Deepest satisfied-fraction drop below the pre-failure baseline.
  double max_dip_depth = 0.0;
  /// Longest rounds-to-baseline recovery among closed dips.
  std::uint64_t max_recovery_rounds = 0;
  /// True when the run ended inside an unrecovered dip.
  bool dip_open = false;

  /// The (keyword, member) list, in checkpoint order; it opens the
  /// checkpoint's churn block (ChurnTracker::for_each_field). Calls
  /// `f(keyword, s.member...)` once per metric, over any number of
  /// ChurnStats at once.
  template <class F, class... S>
  static void for_each_field(F&& f, S&... s) {
    f("failures", s.failures...);
    f("recoveries", s.recoveries...);
    f("evicted", s.evicted...);
    f("max_dip_depth", s.max_dip_depth...);
    f("max_recovery_rounds", s.max_recovery_rounds...);
    f("dip_open", s.dip_open...);
  }
};

/// Incremental tracker behind ChurnStats. All fields are plain data so a
/// checkpoint can serialize mid-dip progress (core/snapshot.hpp) and a
/// resumed run reports the same metrics as the uninterrupted one.
struct ChurnTracker {
  // Written field by field at the head of the checkpoint's "churn" block.
  ChurnStats stats;  // qoslb-snapshot: as(churn)
  bool in_dip = false;
  std::uint64_t dip_start_round = 0;
  std::uint64_t baseline_satisfied = 0;
  std::uint64_t min_satisfied = 0;

  /// The checkpoint's churn block: the ChurnStats list, then the tracker's
  /// own progress fields.
  template <class F, class... T>
  static void for_each_field(F&& f, T&... t) {
    ChurnStats::for_each_field(f, t.stats...);
    f("in_dip", t.in_dip...);
    f("dip_start_round", t.dip_start_round...);
    f("baseline_satisfied", t.baseline_satisfied...);
    f("min_satisfied", t.min_satisfied...);
  }

  /// A kFail event is being applied at the boundary of `round`;
  /// `satisfied_before` is the satisfied count just before eviction.
  void on_failure(std::uint64_t round, std::size_t satisfied_before);
  void on_recovery();
  void on_eviction(std::size_t count);

  /// Round `round` just committed with `satisfied` of `num_users` users
  /// satisfied; rolls the open dip forward and closes it at baseline.
  void on_round_end(std::uint64_t round, std::size_t satisfied,
                    std::size_t num_users);
};

}  // namespace qoslb
