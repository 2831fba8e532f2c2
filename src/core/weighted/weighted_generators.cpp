#include "core/weighted/weighted_generators.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <utility>

#include "rng/zipf.hpp"
#include "util/check.hpp"

namespace qoslb {

WeightedInstance make_weighted_feasible(std::size_t n, std::size_t m,
                                        double slack, std::size_t weight_classes,
                                        double skew, Xoshiro256& rng) {
  QOSLB_REQUIRE(n >= 1 && m >= 1, "need users and resources");
  QOSLB_REQUIRE(slack >= 0.0 && slack < 1.0, "slack in [0,1)");
  QOSLB_REQUIRE(weight_classes >= 1 && weight_classes <= 20,
                "weight_classes out of range");

  const ZipfSampler zipf(weight_classes, skew);
  std::vector<std::uint32_t> weights(n);
  for (auto& w : weights) w = std::uint32_t{1} << zipf(rng);

  // LPT packing: heaviest first onto the currently lightest resource.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return weights[a] > weights[b]; });
  // A min-heap of (load, resource) in O(n log m): ties pop the lowest id,
  // so each user lands on the first of the lightest resources.
  using Slot = std::pair<std::uint64_t, std::size_t>;
  std::vector<Slot> heap(m);
  for (std::size_t r = 0; r < m; ++r) heap[r] = {0, r};
  std::uint64_t peak = 0;
  for (const std::size_t u : order) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    heap.back().first += weights[u];
    peak = std::max(peak, heap.back().first);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  }

  const double threshold =
      std::ceil(static_cast<double>(peak) / (1.0 - slack));
  std::vector<double> requirements(n, 1.0 / threshold);
  return WeightedInstance(std::vector<double>(m, 1.0), std::move(requirements),
                          std::move(weights));
}

}  // namespace qoslb
