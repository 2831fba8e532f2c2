#include "core/weighted/weighted_state.hpp"

#include "rng/distributions.hpp"
#include "util/check.hpp"

namespace qoslb {

WeightedState::WeightedState(const WeightedInstance& instance,
                             std::vector<ResourceId> assignment)
    : instance_(&instance), assignment_(std::move(assignment)) {
  QOSLB_REQUIRE(assignment_.size() == instance.num_users(),
                "assignment must place every user");
  loads_.assign(instance.num_resources(), 0);
  for (UserId u = 0; u < assignment_.size(); ++u) {
    QOSLB_REQUIRE(assignment_[u] < instance.num_resources(),
                  "assignment to unknown resource");
    loads_[assignment_[u]] += instance.weight(u);
  }
}

WeightedState WeightedState::all_on(const WeightedInstance& instance,
                                    ResourceId r) {
  QOSLB_REQUIRE(r < instance.num_resources(), "resource out of range");
  return WeightedState(instance,
                       std::vector<ResourceId>(instance.num_users(), r));
}

WeightedState WeightedState::random(const WeightedInstance& instance,
                                    Xoshiro256& rng) {
  std::vector<ResourceId> assignment(instance.num_users());
  for (auto& r : assignment)
    r = static_cast<ResourceId>(uniform_u64_below(rng, instance.num_resources()));
  return WeightedState(instance, std::move(assignment));
}

ResourceId WeightedState::resource_of(UserId u) const {
  QOSLB_REQUIRE(u < assignment_.size(), "user out of range");
  return assignment_[u];
}

std::int64_t WeightedState::load(ResourceId r) const {
  QOSLB_REQUIRE(r < loads_.size(), "resource out of range");
  return loads_[r];
}

void WeightedState::move(UserId u, ResourceId r) {
  QOSLB_REQUIRE(u < assignment_.size(), "user out of range");
  QOSLB_REQUIRE(r < loads_.size(), "resource out of range");
  const ResourceId old = assignment_[u];
  if (old == r) return;
  const std::int64_t w = instance_->weight(u);
  loads_[old] -= w;
  loads_[r] += w;
  assignment_[u] = r;
  if (index_)
    index_->on_move(u, old, r, instance_->threshold(u, r), loads_[old],
                    loads_[r], /*delta=*/w);
}

void WeightedState::enable_satisfaction_tracking() {
  if (index_) return;
  std::vector<std::int64_t> thresholds(num_users());
  for (UserId u = 0; u < thresholds.size(); ++u)
    thresholds[u] = instance_->threshold(u, assignment_[u]);
  index_.emplace();
  index_->rebuild(num_users(), num_resources(), assignment_.data(),
                  thresholds.data(), loads_.data());
}

const std::vector<UserId>& WeightedState::unsatisfied_view() {
  QOSLB_REQUIRE(index_.has_value(),
                "unsatisfied_view() needs enable_satisfaction_tracking()");
  return index_->unsatisfied();
}

bool WeightedState::satisfied(UserId u) const {
  const ResourceId r = resource_of(u);
  return loads_[r] <= instance_->threshold(u, r);
}

std::size_t WeightedState::count_satisfied() const {
  if (index_) return index_->satisfied_count();
  std::size_t count = 0;
  for (UserId u = 0; u < assignment_.size(); ++u)
    if (satisfied(u)) ++count;
  return count;
}

std::uint64_t WeightedState::satisfied_weight() const {
  std::uint64_t total = 0;
  for (UserId u = 0; u < assignment_.size(); ++u)
    if (satisfied(u)) total += instance_->weight(u);
  return total;
}

void WeightedState::check_invariants() const {
  std::vector<std::int64_t> expected(loads_.size(), 0);
  for (UserId u = 0; u < assignment_.size(); ++u)
    expected[assignment_[u]] += instance_->weight(u);
  QOSLB_CHECK(expected == loads_, "cached weight-loads diverged from assignment");
  if (!index_) return;
  index_->check_consistency(
      [this](UserId u) { return assignment_[u]; },
      [this](UserId u) { return instance_->threshold(u, assignment_[u]); },
      [this](ResourceId r) { return loads_[r]; });
}

bool weighted_satisfied_after_move(const WeightedState& state, UserId u,
                                   ResourceId r) {
  const WeightedInstance& instance = state.instance();
  const std::int64_t w = instance.weight(u);
  const std::int64_t post_load =
      state.resource_of(u) == r ? state.load(r) : state.load(r) + w;
  return post_load <= instance.threshold(u, r);
}

namespace {

bool weighted_deviation_free(const WeightedState& state, UserId u) {
  const ResourceId current = state.resource_of(u);
  for (ResourceId r = 0; r < state.num_resources(); ++r)
    if (r != current && weighted_satisfied_after_move(state, u, r))
      return false;
  return true;
}

}  // namespace

bool is_weighted_satisfaction_equilibrium(const WeightedState& state) {
  return state.for_each_unsatisfied(
      [&](UserId u) { return weighted_deviation_free(state, u); });
}

}  // namespace qoslb
