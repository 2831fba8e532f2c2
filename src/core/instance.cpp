#include "core/instance.hpp"

#include <cmath>

#include "util/check.hpp"

namespace qoslb {
namespace {

// Tolerance for the threshold floor: capacities and requirements are often
// constructed as ratios (q = s / T), where floating-point rounding can land
// s/q infinitesimally below the intended integer.
constexpr double kFloorEpsilon = 1e-9;

/// ⌊ratio⌋ with the tolerance above, clamped at n. Every ratio is
/// positive, so the conversion's truncation is the floor, without a call
/// into libm.
int floored_threshold(double ratio, std::size_t n) {
  const double shifted = ratio + kFloorEpsilon;
  const double cap = static_cast<double>(n);
  return static_cast<int>(shifted < cap ? shifted : cap);
}

}  // namespace

Instance::Instance(std::vector<double> capacities, std::vector<double> requirements)
    : Instance(std::move(capacities), std::move(requirements), RateModel()) {}

Instance::Instance(std::vector<double> capacities,
                   std::vector<double> requirements, RateModel rates)
    : capacities_(std::move(capacities)),
      requirements_(std::move(requirements)),
      rates_(std::move(rates)) {
  QOSLB_REQUIRE(!capacities_.empty(), "instance needs at least one resource");
  QOSLB_REQUIRE(!requirements_.empty(), "instance needs at least one user");
  for (const double s : capacities_) {
    QOSLB_REQUIRE(std::isfinite(s) && s > 0.0, "capacities must be positive");
    if (s != capacities_.front()) identical_ = false;
  }
  inv_requirements_.reserve(requirements_.size());
  for (const double q : requirements_) {
    QOSLB_REQUIRE(std::isfinite(q) && q > 0.0, "requirements must be positive");
    inv_requirements_.push_back(1.0 / q);
  }
  // The RateModel validated its own shape (no empty reachable sets); here
  // only the dimensions need to agree with the scalar vectors.
  QOSLB_REQUIRE(rates_.is_uniform() ||
                    (rates_.num_users() == requirements_.size() &&
                     rates_.num_resources() == capacities_.size()),
                "rate model dimensions must match the instance");
  if (identical_ && rates_.is_uniform()) {
    // threshold(u, r) does not depend on r: precompute the per-user table
    // with the exact arithmetic of threshold() so lookups are bit-identical.
    flat_thresholds_.reserve(requirements_.size());
    for (const double inv_q : inv_requirements_)
      flat_thresholds_.push_back(
          floored_threshold(capacities_.front() * inv_q, num_users()));
  }
  // One threshold per reachable edge, aligned with reachable(u), by the same
  // arithmetic as threshold(); each rate is read by its edge index, never
  // searched for.
  edge_thresholds_.resize(rates_.num_edges());
  int* slot = edge_thresholds_.data();
  rates_.for_each_edge([&](UserId u, ResourceId r, double rate) {
    *slot++ = floored_threshold(capacities_[r] * inv_requirements_[u] * rate,
                                num_users());
  });
}

Instance Instance::identical(std::size_t m_resources, double capacity,
                             std::vector<double> requirements) {
  QOSLB_REQUIRE(m_resources >= 1, "need at least one resource");
  return Instance(std::vector<double>(m_resources, capacity), std::move(requirements));
}

double Instance::capacity(ResourceId r) const {
  QOSLB_REQUIRE(r < capacities_.size(), "resource out of range");
  return capacities_[r];
}

double Instance::requirement(UserId u) const {
  QOSLB_REQUIRE(u < requirements_.size(), "user out of range");
  return requirements_[u];
}

double Instance::quality(ResourceId r, int load) const {
  QOSLB_REQUIRE(load >= 1, "quality defined for load >= 1");
  return capacity(r) / static_cast<double>(load);
}

double Instance::quality(UserId u, ResourceId r, int load) const {
  QOSLB_REQUIRE(load >= 1, "quality defined for load >= 1");
  return rates_.rate(u, r) * capacity(r) / static_cast<double>(load);
}

int Instance::computed_threshold(UserId u, ResourceId r) const {
  double ratio = capacities_[r] * inv_requirements_[u];
  if (!rates_.is_uniform()) {
    const double rate = rates_.rate(u, r);
    if (rate == 0.0) return 0;
    ratio *= rate;
  }
  return floored_threshold(ratio, num_users());
}

}  // namespace qoslb
