#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/rate_model.hpp"
#include "core/types.hpp"

namespace qoslb {

/// Weighted extension of the QoS model (DESIGN.md §6 / experiment E13).
///
/// User `u` carries an integer weight `w_u ≥ 1` (think: flows of different
/// bandwidth, jobs of different size). A resource's load is the *total
/// weight* `W_r` of its users; capacity is shared proportionally to weight,
/// so every unit of weight receives quality `s_r / W_r` and user `u` is
/// satisfied iff `W_r ≤ threshold(u, r) = ⌊rate(u, r) · s_r / q_u⌋` — the
/// same rule as the unit model, with loads measured in weight units. Integer
/// weights keep all load arithmetic exact.
///
/// An optional RateModel adds per-(user, resource) *speeds* — the
/// weights-and-speeds model of Adolphs & Berenbrink. Unlike the unit model,
/// every rate must be strictly positive: the weighted protocols sample the
/// full resource list, so restricted assignment (rate 0) is not supported
/// here and is rejected at construction.
class WeightedInstance {
 public:
  /// The load and threshold type: a load sums user weights.
  using Load = std::int64_t;

  WeightedInstance(std::vector<double> capacities, std::vector<double> requirements,
                   std::vector<std::uint32_t> weights);
  WeightedInstance(std::vector<double> capacities, std::vector<double> requirements,
                   std::vector<std::uint32_t> weights, RateModel rates);

  std::size_t num_users() const { return requirements_.size(); }
  std::size_t num_resources() const { return capacities_.size(); }

  double capacity(ResourceId r) const;
  double requirement(UserId u) const;
  std::uint32_t weight(UserId u) const;
  std::uint64_t total_weight() const { return total_weight_; }

  const RateModel& rate_model() const { return rates_; }
  double rate(UserId u, ResourceId r) const { return rates_.rate(u, r); }

  /// Always false: the constructor rejects restricted rate models.
  bool restricted() const { return rates_.restricted(); }
  std::span<const ResourceId> reachable(UserId u) const {
    return rates_.reachable(u);
  }

  /// Maximum total weight of `r` at which user `u` is still satisfied,
  /// clamped to total_weight().
  std::int64_t threshold(UserId u, ResourceId r) const;

  /// Quality per unit of weight on `r` at total weight `weight_load`:
  /// `s_r / W_r`. Speeds do not enter it (they enter threshold()), so
  /// w-seq-br, which ranks its targets by this quality, ranks them by
  /// capacity share alone (docs/heterogeneity.md).
  double quality(UserId u, ResourceId r, std::int64_t weight_load) const;

  bool identical_capacities() const { return identical_; }

 private:
  std::vector<double> capacities_;
  std::vector<double> requirements_;
  std::vector<double> inv_requirements_;
  std::vector<std::uint32_t> weights_;
  RateModel rates_;
  std::uint64_t total_weight_ = 0;
  bool identical_ = true;
};

}  // namespace qoslb
