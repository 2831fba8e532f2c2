#include "core/state.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "core/satisfaction_scan.hpp"
#include "core/weighted/weighted_state.hpp"
#include "rng/distributions.hpp"
#include "util/check.hpp"

namespace qoslb {

template <typename Model>
BasicState<Model>::BasicState(const Model& instance,
                              std::vector<ResourceId> assignment)
    : instance_(&instance), assignment_(std::move(assignment)) {
  QOSLB_REQUIRE(assignment_.size() == instance.num_users(),
                "assignment must place every user");
  loads_.assign(instance.num_resources(), 0);
  current_thresholds_.resize(assignment_.size());
  for (UserId u = 0; u < assignment_.size(); ++u) {
    const ResourceId r = assignment_[u];
    QOSLB_REQUIRE(r < instance.num_resources(), "assignment to unknown resource");
    const Load threshold = instance.threshold(u, r);
    // Every unreachable pair has threshold 0, so only a 0 needs the lookup.
    QOSLB_REQUIRE(threshold > 0 || !instance.restricted() ||
                      instance.rate(u, r) > 0.0,
                  "assignment places a user on an unreachable resource");
    current_thresholds_[u] = threshold;
    loads_[r] += instance.weight(u);
  }
  live_.assign(instance.num_resources(), 1);
  live_list_.resize(instance.num_resources());
  for (ResourceId r = 0; r < live_list_.size(); ++r) live_list_[r] = r;
}

template <typename Model>
bool BasicState<Model>::resource_live(ResourceId r) const {
  QOSLB_REQUIRE(r < live_.size(), "resource out of range");
  return live_[r] != 0;
}

template <typename Model>
void BasicState<Model>::set_resource_live(ResourceId r, bool live) {
  QOSLB_REQUIRE(r < live_.size(), "resource out of range");
  QOSLB_REQUIRE((live_[r] != 0) != live, "liveness flip must change state");
  if (!live)
    QOSLB_REQUIRE(live_list_.size() >= 2, "cannot kill the last live resource");
  live_[r] = live ? 1 : 0;
  live_list_.clear();
  for (ResourceId s = 0; s < live_.size(); ++s)
    if (live_[s] != 0) live_list_.push_back(s);
}

template <typename Model>
BasicState<Model> BasicState<Model>::all_on(const Model& instance,
                                            ResourceId r) {
  QOSLB_REQUIRE(r < instance.num_resources(), "resource out of range");
  return BasicState(instance, std::vector<ResourceId>(instance.num_users(), r));
}

template <typename Model>
BasicState<Model> BasicState<Model>::round_robin(const Model& instance) {
  std::vector<ResourceId> assignment(instance.num_users());
  if (instance.restricted()) {
    // Balanced over each user's own reachable set instead of [0, m).
    for (std::size_t u = 0; u < assignment.size(); ++u) {
      const auto reach = instance.reachable(static_cast<UserId>(u));
      assignment[u] = reach[u % reach.size()];
    }
  } else {
    for (std::size_t u = 0; u < assignment.size(); ++u)
      assignment[u] = static_cast<ResourceId>(u % instance.num_resources());
  }
  return BasicState(instance, std::move(assignment));
}

template <typename Model>
BasicState<Model> BasicState<Model>::random(const Model& instance,
                                            Xoshiro256& rng) {
  std::vector<ResourceId> assignment(instance.num_users());
  if (instance.restricted()) {
    for (UserId u = 0; u < assignment.size(); ++u) {
      const auto reach = instance.reachable(u);
      assignment[u] = reach[uniform_u64_below(rng, reach.size())];
    }
  } else {
    for (auto& r : assignment)
      r = static_cast<ResourceId>(
          uniform_u64_below(rng, instance.num_resources()));
  }
  return BasicState(instance, std::move(assignment));
}

template <typename Model>
BasicState<Model> BasicState<Model>::two_choices(const Model& instance,
                                                 Xoshiro256& rng) {
  std::vector<ResourceId> assignment(instance.num_users());
  std::vector<int> loads(instance.num_resources(), 0);
  for (UserId u = 0; u < assignment.size(); ++u) {
    ResourceId a;
    ResourceId b;
    if (instance.restricted()) {
      const auto reach = instance.reachable(u);
      a = reach[uniform_u64_below(rng, reach.size())];
      b = reach[uniform_u64_below(rng, reach.size())];
    } else {
      a = static_cast<ResourceId>(
          uniform_u64_below(rng, instance.num_resources()));
      b = static_cast<ResourceId>(
          uniform_u64_below(rng, instance.num_resources()));
    }
    const ResourceId choice = loads[b] < loads[a] ? b : a;
    ++loads[choice];
    assignment[u] = choice;
  }
  return BasicState(instance, std::move(assignment));
}

template <typename Model>
ResourceId BasicState<Model>::resource_of(UserId u) const {
  QOSLB_REQUIRE(u < assignment_.size(), "user out of range");
  return assignment_[u];
}

template <typename Model>
auto BasicState<Model>::load(ResourceId r) const -> Load {
  QOSLB_REQUIRE(r < loads_.size(), "resource out of range");
  return loads_[r];
}

template <typename Model>
void BasicState<Model>::move(UserId u, ResourceId r) {
  QOSLB_REQUIRE(u < assignment_.size(), "user out of range");
  QOSLB_REQUIRE(r < loads_.size(), "resource out of range");
  const ResourceId old = assignment_[u];
  if (old == r) return;
  const Load threshold = instance_->threshold(u, r);
  // Every unreachable pair has threshold 0, so only a 0 needs the lookup.
  QOSLB_REQUIRE(threshold > 0 || !instance_->restricted() ||
                    instance_->rate(u, r) > 0.0,
                "move to an unreachable resource");
  const Load weight = instance_->weight(u);
  loads_[old] -= weight;
  loads_[r] += weight;
  assignment_[u] = r;
  current_thresholds_[u] = threshold;
  if (index_)
    index_->on_move(u, old, r, current_thresholds_[u], loads_[old], loads_[r],
                    /*delta=*/weight);
}

template <typename Model>
void BasicState<Model>::enable_satisfaction_tracking() {
  if (index_) return;
  bool flat = false;
  if constexpr (std::is_same_v<Model, Instance>)
    flat = instance_->flat_thresholds_available();
  index_.emplace();
  index_->rebuild(num_users(), num_resources(), assignment_.data(),
                  current_thresholds_.data(), loads_.data(), flat);
}

template <typename Model>
const std::vector<UserId>& BasicState<Model>::unsatisfied_view() {
  QOSLB_REQUIRE(index_.has_value(),
                "unsatisfied_view() needs enable_satisfaction_tracking()");
  return index_->unsatisfied();
}

template <typename Model>
auto BasicState<Model>::satisfied_resident_min(ResourceId r) const -> Load {
  QOSLB_REQUIRE(index_.has_value(),
                "satisfied_resident_min() needs enable_satisfaction_tracking()");
  QOSLB_REQUIRE(r < loads_.size(), "resource out of range");
  return index_->min_threshold_at_least(
      r, loads_[r], static_cast<Load>(instance_->total_weight()) + 1);
}

template <typename Model>
double BasicState<Model>::quality_of(UserId u) const {
  const ResourceId r = resource_of(u);
  return instance_->quality(u, r, loads_[r]);
}

template <typename Model>
bool BasicState<Model>::satisfied(UserId u) const {
  QOSLB_REQUIRE(u < assignment_.size(), "user out of range");
  return loads_[assignment_[u]] <= current_thresholds_[u];
}

template <typename Model>
std::size_t BasicState<Model>::count_satisfied() const {
  if (index_) return index_->satisfied_count();
  return count_satisfied_dense(assignment_.data(), current_thresholds_.data(),
                               loads_.data(), assignment_.size());
}

template <typename Model>
std::uint64_t BasicState<Model>::satisfied_weight() const {
  // Every unit-model user weighs 1: O(1) with satisfaction tracking.
  if constexpr (std::is_same_v<Model, Instance>) return count_satisfied();
  std::uint64_t total = 0;
  for (UserId u = 0; u < assignment_.size(); ++u)
    if (satisfied(u)) total += instance_->weight(u);
  return total;
}

template <typename Model>
auto BasicState<Model>::max_load() const -> Load {
  return *std::max_element(loads_.begin(), loads_.end());
}

template <typename Model>
auto BasicState<Model>::min_load() const -> Load {
  return *std::min_element(loads_.begin(), loads_.end());
}

template <typename Model>
void BasicState<Model>::check_invariants() const {
  std::vector<Load> expected(loads_.size(), 0);
  for (UserId u = 0; u < assignment_.size(); ++u) {
    const ResourceId r = assignment_[u];
    QOSLB_CHECK(r < loads_.size(), "assignment to unknown resource");
    expected[r] += instance_->weight(u);
  }
  QOSLB_CHECK(expected == loads_, "cached loads diverged from assignment");
  for (UserId u = 0; u < assignment_.size(); ++u)
    QOSLB_CHECK(current_thresholds_[u] ==
                    instance_->threshold(u, assignment_[u]),
                "cached current-resource threshold diverged from recompute");
  std::vector<ResourceId> live_expected;
  for (ResourceId r = 0; r < live_.size(); ++r)
    if (live_[r] != 0) live_expected.push_back(r);
  QOSLB_CHECK(live_expected == live_list_,
              "live-resource list diverged from the liveness bitmap");
  for (const ResourceId r : assignment_)
    QOSLB_CHECK(live_[r] != 0, "user resident on a dead resource");
  if (instance_->restricted())
    for (UserId u = 0; u < assignment_.size(); ++u)
      QOSLB_CHECK(instance_->rate(u, assignment_[u]) > 0.0,
                  "user resident on an unreachable resource");
  if (!index_) return;
  index_->check_consistency(
      [this](UserId u) { return assignment_[u]; },
      [this](UserId u) { return current_thresholds_[u]; },
      [this](ResourceId r) { return loads_[r]; });
}

template class BasicState<Instance>;
template class BasicState<WeightedInstance>;

}  // namespace qoslb
