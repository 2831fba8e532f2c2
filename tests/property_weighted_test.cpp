// Property grid for the weighted model, mirroring property_protocols_test:
// structural consistency, counter sanity, stability on convergence,
// determinism, and the weighted-specific invariant that total weight is
// conserved across every round.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <tuple>

#include "core/engine.hpp"
#include "core/weighted/weighted_generators.hpp"
#include "core/weighted/weighted_protocols.hpp"
#include "rng/splitmix64.hpp"

namespace qoslb {
namespace {

struct WeightedCase {
  int protocol;       // 0 = uniform, 1 = admission, 2 = seq-br
  std::size_t classes;
  double slack;
  bool concentrated;
};

std::unique_ptr<WeightedProtocol> build(int kind) {
  switch (kind) {
    case 0: return std::make_unique<WeightedUniformSampling>(0.5);
    case 1: return std::make_unique<WeightedAdmissionControl>();
    default: return std::make_unique<WeightedSequentialBestResponse>();
  }
}

class WeightedGrid : public ::testing::TestWithParam<WeightedCase> {};

TEST_P(WeightedGrid, InvariantsHoldEndToEnd) {
  const WeightedCase& grid = GetParam();

  auto run_once = [&](std::uint64_t seed) {
    Xoshiro256 rng(seed);
    const WeightedInstance instance =
        make_weighted_feasible(120, 10, grid.slack, grid.classes, 1.0, rng);
    WeightedState state = grid.concentrated
                              ? WeightedState::all_on(instance, 0)
                              : WeightedState::random(instance, rng);
    const std::int64_t total_before =
        std::accumulate(state.loads().begin(), state.loads().end(),
                        std::int64_t{0});

    const auto protocol = build(grid.protocol);
    EngineConfig config;
    config.max_rounds = 20000;
    const EngineResult result = Engine(config).run(*protocol, state, rng);

    state.check_invariants();
    const std::int64_t total_after =
        std::accumulate(state.loads().begin(), state.loads().end(),
                        std::int64_t{0});
    EXPECT_EQ(total_before, total_after);  // weight conservation
    EXPECT_EQ(total_after,
              static_cast<std::int64_t>(instance.total_weight()));

    const Counters& c = result.counters;
    EXPECT_EQ(c.grants + c.rejects, c.migrate_requests);
    if (grid.protocol == 1) {
      EXPECT_EQ(c.grants, c.migrations);
    }
    if (result.converged) {
      EXPECT_TRUE(protocol->is_stable(state));
    }
    EXPECT_LE(result.final_satisfied_weight, instance.total_weight());

    return std::make_tuple(result.rounds, result.final_satisfied,
                           result.final_satisfied_weight, c.migrations);
  };

  const auto a = run_once(derive_seed(777, 3));
  const auto b = run_once(derive_seed(777, 3));
  EXPECT_EQ(a, b);
}

std::vector<WeightedCase> make_grid() {
  std::vector<WeightedCase> grid;
  for (int protocol : {0, 1, 2})
    for (std::size_t classes : {1u, 3u, 5u})
      for (double slack : {0.1, 0.4})
        for (bool concentrated : {true, false})
          grid.push_back(WeightedCase{protocol, classes, slack, concentrated});
  return grid;
}

INSTANTIATE_TEST_SUITE_P(Grid, WeightedGrid, ::testing::ValuesIn(make_grid()));

}  // namespace
}  // namespace qoslb
