// The SoA layout contract (docs/performance.md): State's contiguous
// assignment / load / cached-threshold arrays, the branchless satisfaction
// scans over them, and the end-to-end determinism of the data-oriented round
// hot path.
//
// Two layers:
//   * property tests — thousands of random moves, then every SoA-derived
//     quantity (threshold cache, scan counts, collected unsatisfied sets,
//     the incremental index) must equal a from-scratch scalar recompute;
//   * golden pinning — the engine's final-assignment hash for every sharded
//     protocol x rate model, across thread counts and engine modes, equals
//     the constants captured on the pre-SoA engine. These constants must
//     never change: they prove the rewrite (SoA state, persistent worker
//     pool, prefix-sum shard commit, flat thresholds) is bit-neutral.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/generators.hpp"
#include "core/protocols/registry.hpp"
#include "core/satisfaction_scan.hpp"
#include "core/state.hpp"
#include "net/generators.hpp"
#include "rng/distributions.hpp"

namespace qoslb {
namespace {

std::uint64_t fnv1a_assignment(const State& state) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (UserId u = 0; u < state.num_users(); ++u) {
    std::uint64_t value = state.resource_of(u);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFF;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

/// Scalar from-scratch reference: no caches, no scans, just the definition.
std::size_t scalar_count_satisfied(const State& state) {
  std::size_t satisfied = 0;
  for (UserId u = 0; u < state.num_users(); ++u) {
    const ResourceId r = state.resource_of(u);
    if (state.load(r) <= state.instance().threshold(u, r)) ++satisfied;
  }
  return satisfied;
}

std::vector<UserId> scalar_unsatisfied(const State& state) {
  std::vector<UserId> out;
  for (UserId u = 0; u < state.num_users(); ++u) {
    const ResourceId r = state.resource_of(u);
    if (state.load(r) > state.instance().threshold(u, r)) out.push_back(u);
  }
  return out;
}

/// Random walk applying `moves` random (reachable) moves to both states.
void random_walk(State& state, std::size_t moves, Xoshiro256& rng,
                 const std::function<void(std::size_t)>& audit) {
  const Instance& instance = state.instance();
  for (std::size_t k = 0; k < moves; ++k) {
    const UserId u =
        static_cast<UserId>(uniform_u64_below(rng, state.num_users()));
    ResourceId r;
    if (instance.restricted()) {
      const auto reach = instance.reachable(u);
      r = reach[uniform_u64_below(rng, reach.size())];
    } else {
      r = static_cast<ResourceId>(
          uniform_u64_below(rng, state.num_resources()));
    }
    state.move(u, r);
    audit(k);
  }
}

class SoaLayoutTest : public ::testing::TestWithParam<const char*> {};

/// 10k random moves; the threshold cache, the O(1) satisfied counter, the
/// unsatisfied set, and the full-invariant audit must all match a scalar
/// recompute at every checkpoint.
TEST_P(SoaLayoutTest, RandomMovesKeepEveryCacheEqualToScalarRecompute) {
  const std::string model = GetParam();
  Xoshiro256 gen_rng(2024);
  const Instance instance =
      model == "uniform" ? make_uniform_feasible(2000, 50, 0.5, 1.5, gen_rng)
      : model == "matrix" ? make_zipf_rates(2000, 50, 0.2, 1.1, gen_rng)
                          : make_clustered_bipartite(2000, 50, 8, 2, 0.2,
                                                     gen_rng);
  Xoshiro256 rng(7);
  State state = State::random(instance, rng);
  state.enable_satisfaction_tracking();

  random_walk(state, 10000, rng, [&](std::size_t k) {
    EXPECT_EQ(state.count_satisfied(), scalar_count_satisfied(state));
    if (k % 500 != 0) return;
    state.check_invariants();  // audits the threshold cache and the index
    std::vector<UserId> tracked = state.unsatisfied_view();
    std::sort(tracked.begin(), tracked.end());
    EXPECT_EQ(tracked, scalar_unsatisfied(state));
  });
}

/// The branchless scan helpers agree with the scalar definition — over the
/// dense range and over random (ascending) user subsets, including sizes
/// around the SIMD width.
TEST_P(SoaLayoutTest, SatisfactionScansMatchScalarDefinition) {
  const std::string model = GetParam();
  Xoshiro256 gen_rng(99);
  const Instance instance =
      model == "uniform" ? make_uniform_feasible(1000, 40, 0.5, 1.5, gen_rng)
      : model == "matrix" ? make_zipf_rates(1000, 40, 0.2, 1.1, gen_rng)
                          : make_clustered_bipartite(1000, 40, 8, 2, 0.2,
                                                     gen_rng);
  Xoshiro256 rng(13);
  State state = State::random(instance, rng);

  random_walk(state, 2000, rng, [](std::size_t) {});

  const ResourceId* assignment = state.assignment().data();
  const int* thresholds = state.current_thresholds().data();
  const int* loads = state.loads().data();
  const std::size_t n = state.num_users();

  EXPECT_EQ(count_satisfied_dense(assignment, thresholds, loads, n),
            scalar_count_satisfied(state));

  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{64}, std::size_t{333}, n}) {
    // Ascending random subset (the engine always hands sorted user lists).
    std::vector<UserId> users;
    for (UserId u = 0; u < n && users.size() < size; ++u)
      if (size == n || uniform_u64_below(rng, 2) == 0) users.push_back(u);

    std::size_t scalar_satisfied = 0;
    std::vector<UserId> scalar_unsat;
    for (const UserId u : users) {
      if (loads[assignment[u]] <= thresholds[u]) ++scalar_satisfied;
      else scalar_unsat.push_back(u);
    }

    EXPECT_EQ(count_satisfied_scan(assignment, thresholds, loads,
                                   users.data(), users.size()),
              scalar_satisfied);
    std::vector<UserId> collected(users.size() + 1, 0xDEADBEEF);
    const std::size_t written =
        collect_unsatisfied(assignment, thresholds, loads, users.data(),
                            users.size(), collected.data());
    ASSERT_EQ(written, scalar_unsat.size());
    collected.resize(written);
    EXPECT_EQ(collected, scalar_unsat);  // exact ascending order
  }
}

INSTANTIATE_TEST_SUITE_P(AllRateModels, SoaLayoutTest,
                         ::testing::Values("uniform", "matrix", "bipartite"),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

/// The flat-threshold fast path (identical capacities x uniform rates) is
/// bit-identical to the general arithmetic.
TEST(FlatThresholds, TableMatchesGeneralArithmetic) {
  std::vector<double> requirements;
  Xoshiro256 rng(5);
  for (int i = 0; i < 500; ++i)
    requirements.push_back(uniform_real(rng, 0.01, 2.0));
  const Instance flat = Instance::identical(16, 3.7, requirements);
  ASSERT_TRUE(flat.flat_thresholds_available());

  // Same capacities spelled as a vector with one perturbed entry: not
  // identical, so the general path runs. Restores the perturbed entry's
  // value for the comparison columns that share capacity 3.7.
  std::vector<double> capacities(16, 3.7);
  capacities[7] = 3.8;
  const Instance general(capacities, requirements);
  ASSERT_FALSE(general.flat_thresholds_available());

  for (UserId u = 0; u < requirements.size(); ++u) {
    for (ResourceId r = 0; r < 16; ++r) {
      if (r == 7) continue;
      EXPECT_EQ(flat.threshold(u, r), general.threshold(u, r))
          << "u=" << u << " r=" << r;
    }
    EXPECT_EQ(flat.flat_thresholds()[u], flat.threshold(u, 0));
  }
}

// ---------------------------------------------------------------------------
// Golden pinning: constants captured from the pre-SoA engine (n=4096, m=64,
// 12 rounds, generator and run seeds 0xC0FFEE, torus(8,8) neighborhoods).
// Every (protocol, model) cell must reproduce its constant for every thread
// count and engine mode.

struct GoldenCase {
  const char* protocol;
  const char* model;
  std::uint64_t hash;
};

constexpr GoldenCase kGolden[] = {
    {"uniform", "uniform", 5279639549658564607ULL},
    {"uniform", "matrix", 6353885293091060871ULL},
    {"uniform", "bipartite", 16330120590967387758ULL},
    {"adaptive", "uniform", 14621562862186132828ULL},
    {"adaptive", "matrix", 14621562862186132828ULL},
    {"adaptive", "bipartite", 6780310642695230133ULL},
    {"admission", "uniform", 14621562862186132828ULL},
    {"admission", "matrix", 14621562862186132828ULL},
    {"admission", "bipartite", 6684483509147484388ULL},
    {"nbr-uniform", "uniform", 276879360151485623ULL},
    {"nbr-uniform", "matrix", 16069515457872339847ULL},
    {"nbr-uniform", "bipartite", 18085179102331136945ULL},
    {"nbr-admission", "uniform", 2515580048525765050ULL},
    {"nbr-admission", "matrix", 1125576434327794789ULL},
    {"nbr-admission", "bipartite", 7971635027671204033ULL},
    {"berenbrink", "uniform", 782345824892656916ULL},
    {"berenbrink", "matrix", 782345824892656916ULL},
    {"berenbrink", "bipartite", 13736654091904881099ULL},
};

TEST(GoldenHashes, EveryProtocolModelThreadsModeCellMatchesPreSoaCapture) {
  const std::size_t n = 4096, m = 64;
  // One sequential generator stream builds the three models, exactly as the
  // capture harness did — order matters.
  Xoshiro256 gen_rng(0xC0FFEE);
  struct Model {
    std::string name;
    Instance instance;
  };
  std::vector<Model> models;
  models.push_back({"uniform", make_uniform_feasible(n, m, 0.5, 1.5, gen_rng)});
  models.push_back({"matrix", make_zipf_rates(n, m, 0.2, 1.1, gen_rng)});
  models.push_back(
      {"bipartite", make_clustered_bipartite(n, m, 8, 2, 0.2, gen_rng)});
  const Graph graph = make_torus(8, 8);

  for (const GoldenCase& golden : kGolden) {
    const Model* model = nullptr;
    for (const Model& candidate : models)
      if (candidate.name == golden.model) model = &candidate;
    ASSERT_NE(model, nullptr);

    ProtocolSpec spec;
    spec.kind = golden.protocol;
    spec.lambda = 0.5;
    spec.graph = &graph;
    const auto protocol = make_protocol(spec);

    std::vector<ResourceId> start(n, 0);
    if (model->instance.restricted())
      for (UserId u = 0; u < n; ++u)
        start[u] = model->instance.reachable(u).front();

    for (const std::size_t threads : {1, 2, 4}) {
      for (const EngineMode mode : {EngineMode::kDense, EngineMode::kActive}) {
        State state(model->instance, std::vector<ResourceId>(start));
        EngineConfig config;
        config.max_rounds = 12;
        config.threads = threads;
        config.mode = mode;
        Xoshiro256 rng(0xC0FFEE);
        Engine(config).run(*protocol, state, rng);
        protocol->reset();
        EXPECT_EQ(fnv1a_assignment(state), golden.hash)
            << golden.protocol << " x " << golden.model
            << " threads=" << threads << " mode="
            << (mode == EngineMode::kDense ? "dense" : "active");
      }
    }
  }
}

}  // namespace
}  // namespace qoslb
