#include "core/generators.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/satisfaction.hpp"
#include "core/state.hpp"
#include "opt/satisfaction.hpp"
#include "rng/xoshiro256.hpp"

namespace qoslb {
namespace {

std::vector<int> thresholds_of(const Instance& inst) {
  std::vector<int> out(inst.num_users());
  for (UserId u = 0; u < inst.num_users(); ++u) out[u] = inst.threshold(u, 0);
  return out;
}

class UniformFeasibleParams
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, double>> {};

TEST_P(UniformFeasibleParams, IsFeasibleByConstruction) {
  const auto [n, m, slack] = GetParam();
  Xoshiro256 rng(n * 31 + m);
  const Instance inst = make_uniform_feasible(n, m, slack, 1.5, rng);
  EXPECT_EQ(inst.num_users(), n);
  EXPECT_EQ(inst.num_resources(), m);
  EXPECT_TRUE(all_satisfiable(thresholds_of(inst), static_cast<int>(m)));
  // The balanced round-robin assignment must satisfy everyone.
  const State balanced = State::round_robin(inst);
  EXPECT_EQ(balanced.count_satisfied(), n);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, UniformFeasibleParams,
    ::testing::Values(std::make_tuple(8, 2, 0.0), std::make_tuple(50, 5, 0.3),
                      std::make_tuple(100, 10, 0.5), std::make_tuple(64, 64, 0.5),
                      std::make_tuple(7, 3, 0.9), std::make_tuple(1, 1, 0.0)));

TEST(UniformFeasible, SlackRaisesThresholds) {
  Xoshiro256 rng(1);
  const Instance loose = make_uniform_feasible(100, 10, 0.8, 1.0, rng);
  const Instance tight = make_uniform_feasible(100, 10, 0.0, 1.0, rng);
  EXPECT_GT(loose.threshold(0, 0), tight.threshold(0, 0));
  // slack 0, heterogeneity 1: threshold exactly the balanced load.
  EXPECT_EQ(tight.threshold(0, 0), 10);
}

TEST(UniformFeasible, RejectsBadParameters) {
  Xoshiro256 rng(1);
  EXPECT_THROW(make_uniform_feasible(0, 2, 0.5, 1.0, rng), std::invalid_argument);
  EXPECT_THROW(make_uniform_feasible(2, 2, 1.0, 1.0, rng), std::invalid_argument);
  EXPECT_THROW(make_uniform_feasible(2, 2, -0.1, 1.0, rng), std::invalid_argument);
  EXPECT_THROW(make_uniform_feasible(2, 2, 0.5, 0.9, rng), std::invalid_argument);
}

TEST(QosClasses, GeometricThresholdsAndFeasibility) {
  const Instance inst = make_qos_classes(/*m=*/6, /*classes=*/3,
                                         /*base_threshold=*/4, /*slack=*/0.25);
  // Classes have thresholds 4, 8, 16; with slack 0.25 groups of 3, 6, 12.
  EXPECT_EQ(inst.num_users(), 2u * (3 + 6 + 12));
  EXPECT_TRUE(all_satisfiable(thresholds_of(inst), 6));
}

TEST(QosClasses, SingleClassReducesToUniform) {
  const Instance inst = make_qos_classes(4, 1, 10, 0.5);
  for (UserId u = 0; u < inst.num_users(); ++u)
    EXPECT_EQ(inst.threshold(u, 0), 10);
}

TEST(Zipf, ThresholdsSkewedTowardEasy) {
  Xoshiro256 rng(5);
  const Instance inst = make_zipf(200, 10, 1.2, rng);
  const auto thresholds = thresholds_of(inst);
  const int top = *std::max_element(thresholds.begin(), thresholds.end());
  int at_top = 0;
  for (const int t : thresholds)
    if (t == top) ++at_top;
  // Rank 0 (the loosest threshold) carries ~46% of the Zipf(1.2) mass.
  EXPECT_GT(at_top, 60);
}

TEST(Overloaded, NotFullySatisfiable) {
  const Instance inst = make_overloaded(40, 4, 2.0);
  EXPECT_FALSE(all_satisfiable(thresholds_of(inst), 4));
  // Threshold = n/(m*overload) = 5.
  EXPECT_EQ(inst.threshold(0, 0), 5);
}

TEST(Overloaded, RejectsNonOverload) {
  EXPECT_THROW(make_overloaded(10, 2, 1.0), std::invalid_argument);
}

TEST(Herding, TwoResourcesTightThreshold) {
  const Instance inst = make_herding(50);
  EXPECT_EQ(inst.num_resources(), 2u);
  EXPECT_EQ(inst.num_users(), 50u);
  for (UserId u = 0; u < 50; ++u) EXPECT_EQ(inst.threshold(u, 0), 30);
  // Feasible: a 25/25 split satisfies everyone.
  EXPECT_TRUE(all_satisfiable(thresholds_of(inst), 2));
}

TEST(RelatedCapacities, PowersOfTwoCapacities) {
  Xoshiro256 rng(7);
  const Instance inst = make_related_capacities(60, 6, 0.3, 3, rng);
  EXPECT_FALSE(inst.identical_capacities());
  EXPECT_DOUBLE_EQ(inst.capacity(0), 1.0);
  EXPECT_DOUBLE_EQ(inst.capacity(1), 2.0);
  EXPECT_DOUBLE_EQ(inst.capacity(2), 4.0);
  EXPECT_DOUBLE_EQ(inst.capacity(3), 1.0);
}

TEST(RelatedCapacities, EveryUserSatisfiableSomewhere) {
  Xoshiro256 rng(9);
  const Instance inst = make_related_capacities(40, 4, 0.2, 2, rng);
  // Requirements are drawn below every resource's per-slot quality at the
  // proportional loads, so each user's threshold is >= 1 everywhere.
  for (UserId u = 0; u < inst.num_users(); ++u)
    for (ResourceId r = 0; r < inst.num_resources(); ++r)
      EXPECT_GE(inst.threshold(u, r), 1) << "u=" << u << " r=" << r;
}

TEST(Generators, DeterministicPerSeed) {
  Xoshiro256 a(42), b(42);
  const Instance ia = make_uniform_feasible(30, 3, 0.4, 2.0, a);
  const Instance ib = make_uniform_feasible(30, 3, 0.4, 2.0, b);
  for (UserId u = 0; u < 30; ++u)
    EXPECT_DOUBLE_EQ(ia.requirement(u), ib.requirement(u));
}

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFF;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t bits_of(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

// make_clustered_bipartite's output and its RNG consumption, pinned. The
// generator RNG's next output catches a rewrite that adds, drops or reorders
// a draw even where the edges happen to agree.
TEST(ClusteredBipartite, EdgesRequirementsAndDrawsArePinned) {
  struct Pin {
    std::size_t n, m, clusters, extra, num_edges;
    std::uint64_t edges_hash, requirements_hash, next_draw;
  };
  const Pin pins[] = {
      // The text-fuzz world.
      {12, 4, 2, 1, 36u, 12221354386969043671ULL, 8964434353853124837ULL,
       17497830740709319400ULL},
      // m % clusters != 0: uneven home clusters.
      {50, 10, 3, 2, 267u, 15685378362733313545ULL, 11927513984775610821ULL,
       1491812105809664447ULL},
      // extra >= the remote count: every remote resource is picked.
      {20, 6, 3, 5, 120u, 10341685972360071821ULL, 3298447794942200269ULL,
       9805640043659667797ULL},
      // One cluster: no remote resources, no draws.
      {20, 5, 1, 2, 100u, 9362454111073710841ULL, 3298447794942200269ULL,
       15697391907469195534ULL},
      // One resource per cluster.
      {20, 5, 5, 1, 40u, 7969639581764505288ULL, 3298447794942200269ULL,
       13177740415740467621ULL},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE("n=" + std::to_string(pin.n) + " m=" + std::to_string(pin.m) +
                 " clusters=" + std::to_string(pin.clusters) +
                 " extra=" + std::to_string(pin.extra));
    Xoshiro256 rng(pin.n * 1000 + pin.m * 100 + pin.clusters * 10 + pin.extra);
    const Instance inst = make_clustered_bipartite(pin.n, pin.m, pin.clusters,
                                                   pin.extra, 0.2, rng);
    const std::vector<RateEdge> edges = inst.rate_model().edges();
    std::uint64_t edges_hash = 14695981039346656037ULL;
    for (const RateEdge& e : edges) {
      edges_hash = fnv1a(edges_hash, e.user);
      edges_hash = fnv1a(edges_hash, e.resource);
      edges_hash = fnv1a(edges_hash, bits_of(e.rate));
    }
    std::uint64_t requirements_hash = 14695981039346656037ULL;
    for (const double q : inst.requirements())
      requirements_hash = fnv1a(requirements_hash, bits_of(q));
    EXPECT_EQ(edges.size(), pin.num_edges);
    EXPECT_EQ(edges_hash, pin.edges_hash);
    EXPECT_EQ(requirements_hash, pin.requirements_hash);
    EXPECT_EQ(rng(), pin.next_draw);
  }
}

}  // namespace
}  // namespace qoslb
