#include "core/weighted/weighted_instance.hpp"

#include <cmath>

#include "util/check.hpp"

namespace qoslb {
namespace {
constexpr double kFloorEpsilon = 1e-9;  // same convention as core/instance.cpp
}

WeightedInstance::WeightedInstance(std::vector<double> capacities,
                                   std::vector<double> requirements,
                                   std::vector<std::uint32_t> weights)
    : WeightedInstance(std::move(capacities), std::move(requirements),
                       std::move(weights), RateModel::uniform()) {}

WeightedInstance::WeightedInstance(std::vector<double> capacities,
                                   std::vector<double> requirements,
                                   std::vector<std::uint32_t> weights,
                                   RateModel rates)
    : capacities_(std::move(capacities)),
      requirements_(std::move(requirements)),
      weights_(std::move(weights)),
      rates_(std::move(rates)) {
  QOSLB_REQUIRE(!capacities_.empty(), "instance needs at least one resource");
  QOSLB_REQUIRE(!requirements_.empty(), "instance needs at least one user");
  QOSLB_REQUIRE(weights_.size() == requirements_.size(),
                "one weight per user required");
  for (const double s : capacities_) {
    QOSLB_REQUIRE(std::isfinite(s) && s > 0.0, "capacities must be positive");
    if (s != capacities_.front()) identical_ = false;
  }
  inv_requirements_.reserve(requirements_.size());
  for (const double q : requirements_) {
    QOSLB_REQUIRE(std::isfinite(q) && q > 0.0, "requirements must be positive");
    inv_requirements_.push_back(1.0 / q);
  }
  for (const std::uint32_t w : weights_) {
    QOSLB_REQUIRE(w >= 1, "weights must be at least 1");
    total_weight_ += w;
  }
  if (!rates_.is_uniform()) {
    QOSLB_REQUIRE(rates_.num_users() == requirements_.size() &&
                      rates_.num_resources() == capacities_.size(),
                  "rate model dimensions must match the instance");
    // Weighted protocols sample the full resource list, so a rate of 0
    // (restricted assignment) has no sampling support here: speeds only.
    QOSLB_REQUIRE(!rates_.restricted(),
                  "weighted instances require strictly positive rates "
                  "(restricted assignment is not supported in the weighted "
                  "model)");
  }
}

double WeightedInstance::capacity(ResourceId r) const {
  QOSLB_REQUIRE(r < capacities_.size(), "resource out of range");
  return capacities_[r];
}

double WeightedInstance::requirement(UserId u) const {
  QOSLB_REQUIRE(u < requirements_.size(), "user out of range");
  return requirements_[u];
}

std::uint32_t WeightedInstance::weight(UserId u) const {
  QOSLB_REQUIRE(u < weights_.size(), "user out of range");
  return weights_[u];
}

std::int64_t WeightedInstance::threshold(UserId u, ResourceId r) const {
  QOSLB_REQUIRE(u < requirements_.size(), "user out of range");
  QOSLB_REQUIRE(r < capacities_.size(), "resource out of range");
  const double ratio = rates_.rate(u, r) * capacities_[r] * inv_requirements_[u];
  const double floored = std::floor(ratio + kFloorEpsilon);
  const double cap = static_cast<double>(total_weight_);
  return static_cast<std::int64_t>(std::min(floored, cap));
}

double WeightedInstance::quality(UserId, ResourceId r,
                                 std::int64_t weight_load) const {
  QOSLB_REQUIRE(weight_load >= 1, "quality defined for positive load");
  return capacity(r) / static_cast<double>(weight_load);
}

}  // namespace qoslb
