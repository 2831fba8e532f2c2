#include "core/churn.hpp"

#include "rng/distributions.hpp"
#include "util/check.hpp"

namespace qoslb {
namespace {

std::vector<double> capacities_of(const Instance& instance) {
  std::vector<double> out(instance.num_resources());
  for (ResourceId r = 0; r < out.size(); ++r) out[r] = instance.capacity(r);
  return out;
}

std::vector<double> requirements_of(const Instance& instance) {
  std::vector<double> out(instance.num_users());
  for (UserId u = 0; u < out.size(); ++u) out[u] = instance.requirement(u);
  return out;
}

}  // namespace

World snapshot_world(const State& state) {
  const Instance& instance = state.instance();
  std::vector<ResourceId> assignment(instance.num_users());
  for (UserId u = 0; u < assignment.size(); ++u)
    assignment[u] = state.resource_of(u);
  return World{Instance(capacities_of(instance), requirements_of(instance)),
               std::move(assignment)};
}

World replace_users(const World& world, std::size_t count, double q_lo,
                    double q_hi, Xoshiro256& rng) {
  QOSLB_REQUIRE(q_lo > 0.0 && q_hi >= q_lo, "bad requirement range");
  const Instance& instance = world.instance;
  std::vector<double> requirements = requirements_of(instance);
  std::vector<ResourceId> assignment = world.assignment;
  std::vector<std::size_t> replaced;
  sample_without_replacement(rng, instance.num_users(), count, replaced);
  for (const std::size_t u : replaced) {
    requirements[u] = uniform_real(rng, q_lo, q_hi);
    assignment[u] = static_cast<ResourceId>(
        uniform_u64_below(rng, instance.num_resources()));
  }
  return World{Instance(capacities_of(instance), std::move(requirements)),
               std::move(assignment)};
}

World add_users(const World& world, std::size_t count, double q_lo, double q_hi,
                Xoshiro256& rng, ResourceId placement) {
  QOSLB_REQUIRE(q_lo > 0.0 && q_hi >= q_lo, "bad requirement range");
  const Instance& instance = world.instance;
  QOSLB_REQUIRE(placement == kNoResource || placement < instance.num_resources(),
                "placement out of range");
  std::vector<double> requirements = requirements_of(instance);
  std::vector<ResourceId> assignment = world.assignment;
  for (std::size_t i = 0; i < count; ++i) {
    requirements.push_back(uniform_real(rng, q_lo, q_hi));
    assignment.push_back(placement != kNoResource
                             ? placement
                             : static_cast<ResourceId>(uniform_u64_below(
                                   rng, instance.num_resources())));
  }
  return World{Instance(capacities_of(instance), std::move(requirements)),
               std::move(assignment)};
}

World remove_users(const World& world, std::size_t count, Xoshiro256& rng) {
  const Instance& instance = world.instance;
  QOSLB_REQUIRE(count < instance.num_users(), "cannot remove every user");
  std::vector<bool> removed(instance.num_users(), false);
  std::vector<std::size_t> victims;
  sample_without_replacement(rng, instance.num_users(), count, victims);
  for (const std::size_t u : victims) removed[u] = true;
  std::vector<double> requirements;
  std::vector<ResourceId> assignment;
  for (UserId u = 0; u < instance.num_users(); ++u) {
    if (removed[u]) continue;
    requirements.push_back(instance.requirement(u));
    assignment.push_back(world.assignment[u]);
  }
  return World{Instance(capacities_of(instance), std::move(requirements)),
               std::move(assignment)};
}

World fail_resource(const World& world, ResourceId r, Xoshiro256& rng) {
  const Instance& instance = world.instance;
  if (r >= instance.num_resources())
    throw ChurnError("fail_resource: resource " + std::to_string(r) +
                     " out of range (world has " +
                     std::to_string(instance.num_resources()) + ")");
  if (instance.num_resources() < 2)
    throw ChurnError(
        "fail_resource: cannot fail the only resource — displaced users "
        "would have no surviving resource to land on");

  std::vector<double> capacities;
  for (ResourceId s = 0; s < instance.num_resources(); ++s)
    if (s != r) capacities.push_back(instance.capacity(s));

  const std::size_t survivors = capacities.size();
  std::vector<ResourceId> assignment(world.assignment.size());
  for (UserId u = 0; u < assignment.size(); ++u) {
    ResourceId placed = world.assignment[u];
    if (placed == r)
      placed = static_cast<ResourceId>(uniform_u64_below(rng, survivors));
    else if (placed > r)
      placed -= 1;  // ids above the failed resource shift down
    assignment[u] = placed;
  }
  return World{Instance(std::move(capacities), requirements_of(instance)),
               std::move(assignment)};
}

}  // namespace qoslb
