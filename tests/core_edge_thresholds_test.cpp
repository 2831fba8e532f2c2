// Thresholds by edge (docs/performance.md, "Thresholds by edge"):
//
//  - the edge table: every entry of Instance::reachable_thresholds() equals
//    the threshold formula recomputed here from the pair's rate (not through
//    threshold(), which reads the same table), on bipartite models with
//    varied capacities and rates, a restricted matrix and an unrestricted
//    bipartite model; threshold() agrees on every pair and reads 0 on every
//    unreachable one;
//  - the probe: sample_reachable() returns the resource and threshold of a
//    reference copy of the searching probe it replaced, and leaves the
//    Philox stream at the same position, with some resources dead;
//  - State::move() still refuses an unreachable target;
//  - multi-probe goldens: uniform (k=3), adaptive (k=2), admission (k=3),
//    nbr-uniform (k=3) and nbr-admission (k=3) on the uniform, matrix,
//    restricted-matrix and bipartite rate models, pinned at threads 1 and
//    4 in dense and active mode; the nbr-* kinds probe the neighbours of
//    the user's resource on the 5-dimensional hypercube over the 32
//    resources. With more than one probe the decide body still ranks
//    probes by quality, so these runs cover the path that single-probe
//    runs skip.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/generators.hpp"
#include "core/protocols/common.hpp"
#include "core/protocols/registry.hpp"
#include "core/snapshot.hpp"
#include "net/generators.hpp"
#include "rng/distributions.hpp"
#include "rng/round_rng.hpp"
#include "rng/xoshiro256.hpp"

namespace qoslb {
namespace {

/// ⌊rate · s_r / q_u⌋ as Instance defines it, (s_r · 1/q_u) · rate + 1e-9
/// floored and clamped at n; 0 when u cannot use r.
int formula_threshold(const Instance& instance, UserId u, ResourceId r) {
  const double rate = instance.rate(u, r);
  if (rate == 0.0) return 0;
  const double ratio =
      instance.capacity(r) * (1.0 / instance.requirement(u)) * rate;
  const double n = static_cast<double>(instance.num_users());
  return static_cast<int>(std::min(std::floor(ratio + 1e-9), n));
}

/// Checks every edge's table entry and every pair's threshold() against the
/// formula; returns how many edges read 0 and how many were clamped at n.
std::pair<std::size_t, std::size_t> check_edge_table(const Instance& instance) {
  std::size_t zeros = 0, clamped = 0;
  const int n = static_cast<int>(instance.num_users());
  for (UserId u = 0; u < instance.num_users(); ++u) {
    const auto reach = instance.reachable(u);
    const auto thresholds = instance.reachable_thresholds(u);
    EXPECT_EQ(thresholds.size(), reach.size()) << "u=" << u;
    for (std::size_t k = 0; k < reach.size(); ++k) {
      const int expected = formula_threshold(instance, u, reach[k]);
      EXPECT_EQ(thresholds[k], expected) << "u=" << u << " r=" << reach[k];
      zeros += expected == 0 ? 1 : 0;
      clamped += expected == n ? 1 : 0;
    }
    for (ResourceId r = 0; r < instance.num_resources(); ++r)
      EXPECT_EQ(instance.threshold(u, r), formula_threshold(instance, u, r))
          << "u=" << u << " r=" << r;
  }
  return {zeros, clamped};
}

/// A bipartite model over varied capacities and rates: user u reaches
/// resource r when (u + r) % 3 != 0, at a rate drawn from [0.05, 4]; user 0
/// reaches resource 1 at a rate too small for any threshold and user 1
/// reaches resource 2 at one past n.
Instance varied_bipartite(std::size_t n, std::size_t m, Xoshiro256& rng) {
  std::vector<double> capacities(m), requirements(n);
  for (double& s : capacities) s = uniform_real(rng, 0.5, 8.0);
  for (double& q : requirements) q = uniform_real(rng, 0.02, 1.0);
  std::vector<RateEdge> edges;
  for (UserId u = 0; u < n; ++u)
    for (ResourceId r = 0; r < m; ++r)
      if ((u + r) % 3 != 0)
        edges.push_back({u, r, uniform_real(rng, 0.05, 4.0)});
  for (RateEdge& e : edges) {
    if (e.user == 0 && e.resource == 1)
      e.rate = 0.5 * requirements[0] / capacities[1];
    if (e.user == 1 && e.resource == 2)
      e.rate = 4.0 * static_cast<double>(n) * requirements[1] / capacities[2];
  }
  return Instance(std::move(capacities), std::move(requirements),
                  RateModel::bipartite(n, m, std::move(edges)));
}

TEST(EdgeThresholds, TableMatchesTheFormulaOnEveryEdge) {
  Xoshiro256 rng(0xED6E);
  for (const std::size_t n : {7u, 60u, 400u}) {
    const Instance instance = varied_bipartite(n, 13, rng);
    ASSERT_TRUE(instance.restricted());
    const auto [zeros, clamped] = check_edge_table(instance);
    EXPECT_GE(zeros, 1u) << "n=" << n;
    EXPECT_GE(clamped, 1u) << "n=" << n;
    EXPECT_EQ(instance.reachable_thresholds(0)[0], 0);  // user 0's edge to 1
  }

  // A restricted matrix: the table is built from the matrix entries.
  const Instance zipf = make_zipf_rates(300, 16, 0.1, 1.1, rng);
  std::vector<double> rates = zipf.rate_model().matrix_rates();
  for (std::size_t i = 0; i < rates.size(); i += 3) rates[i] = 0.0;
  const Instance matrix(zipf.capacities(), zipf.requirements(),
                        RateModel::matrix(300, 16, std::move(rates)));
  ASSERT_TRUE(matrix.restricted());
  check_edge_table(matrix);

  // An unrestricted bipartite model (every user reaches every resource)
  // still materializes its rows, so it carries the table too.
  std::vector<RateEdge> complete;
  for (UserId u = 0; u < 50; ++u)
    for (ResourceId r = 0; r < 6; ++r)
      complete.push_back({u, r, uniform_real(rng, 0.1, 2.0)});
  const Instance full(std::vector<double>{1.0, 2.0, 3.0, 1.5, 0.5, 4.0},
                      std::vector<double>(50, 0.05),
                      RateModel::bipartite(50, 6, std::move(complete)));
  ASSERT_FALSE(full.restricted());
  check_edge_table(full);
}

/// The probe as it was before the edge table: draw, then search u's row
/// for the threshold (here through the formula, which searches for the
/// rate). A failed probe carries threshold 0.
Probe searching_probe(const State& state, UserId u, PhiloxEngine& rng) {
  const Instance& instance = state.instance();
  ResourceId r = kNoResource;
  if (!instance.restricted()) {
    const auto& live = state.live_resources();
    r = live[uniform_u64_below(rng, live.size())];
  } else {
    const auto reach = instance.reachable(u);
    r = reach[uniform_u64_below(rng, reach.size())];
    if (!state.resource_live(r)) return {};
  }
  return {r, formula_threshold(instance, u, r)};
}

TEST(EdgeThresholds, ProbeMatchesTheSearchingReference) {
  Xoshiro256 gen(0x9B0BE);
  std::vector<Instance> instances;
  instances.push_back(make_clustered_bipartite(500, 24, 4, 3, 0.1, gen));
  instances.push_back(varied_bipartite(300, 11, gen));
  const Instance zipf = make_zipf_rates(300, 12, 0.1, 1.1, gen);
  std::vector<double> rates = zipf.rate_model().matrix_rates();
  for (std::size_t i = 1; i < rates.size(); i += 4) rates[i] = 0.0;
  instances.push_back(Instance(zipf.capacities(), zipf.requirements(),
                               RateModel::matrix(300, 12, std::move(rates))));
  instances.push_back(zipf);  // unrestricted: the live-list draw
  for (std::size_t which = 0; which < instances.size(); ++which) {
    const Instance& instance = instances[which];
    State state = State::random(instance, gen);
    // Kill every third resource (never the last live one).
    for (ResourceId r = 0; r + 1 < instance.num_resources(); r += 3)
      state.set_resource_live(r, false);
    std::size_t failed = 0;
    for (std::uint64_t round = 0; round < 4; ++round) {
      const RoundRng streams(0xF00D + which, round);
      for (UserId u = 0; u < instance.num_users(); ++u) {
        PhiloxEngine rng = streams.user_stream(u);
        PhiloxEngine reference_rng = streams.user_stream(u);
        for (int probe = 0; probe < 3; ++probe) {
          const Probe got = sample_reachable(state, u, rng);
          const Probe want = searching_probe(state, u, reference_rng);
          ASSERT_EQ(got.resource, want.resource)
              << "instance " << which << " u=" << u;
          ASSERT_EQ(got.threshold, want.threshold)
              << "instance " << which << " u=" << u << " r=" << got.resource;
          ASSERT_EQ(rng.position(), reference_rng.position());
          failed += got.resource == kNoResource ? 1 : 0;
        }
      }
    }
    if (instance.restricted()) {
      EXPECT_GT(failed, 0u) << "instance " << which;
    }
  }
}

TEST(EdgeThresholds, MoveRefusesAnUnreachableTargetAndTakesAZeroEdge) {
  Xoshiro256 gen(0x3017E);
  const Instance instance = varied_bipartite(40, 9, gen);
  std::vector<ResourceId> start(40);
  for (UserId u = 0; u < 40; ++u) start[u] = instance.reachable(u).front();
  State state(instance, std::move(start));
  // User 3 reaches r exactly when (3 + r) % 3 != 0, so not resource 0.
  EXPECT_THROW(state.move(3, 0), std::invalid_argument);
  EXPECT_EQ(state.resource_of(3), 1u);
  state.check_invariants();
  // User 0's edge to resource 2 is reachable; its edge to resource 1 has
  // threshold 0, which is reachable too, so the move back is granted.
  ASSERT_EQ(instance.threshold(0, 1), 0);
  state.move(0, 2);
  state.move(0, 1);
  EXPECT_EQ(state.resource_of(0), 1u);
  state.check_invariants();
}

/// The zipf-rates matrix with every entry (u, r) where (u + 2r) % 5 == 0
/// zeroed: a restricted matrix (each user keeps 4 of every 5 resources).
Instance restricted_matrix(const Instance& dense) {
  const std::size_t n = dense.num_users(), m = dense.num_resources();
  std::vector<double> rates = dense.rate_model().matrix_rates();
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t r = 0; r < m; ++r)
      if ((u + 2 * r) % 5 == 0) rates[u * m + r] = 0.0;
  return Instance(dense.capacities(), dense.requirements(),
                  RateModel::matrix(n, m, std::move(rates)));
}

struct MultiProbeGolden {
  const char* protocol;
  int probes;
  const char* model;
  std::uint64_t hash;
  std::uint64_t rounds;
  std::uint64_t messages;
};

// Captured at the commit before edge thresholds (n=2000, m=32, generator
// seed 0x5EED, run seeds 7 and 99, every user on its first reachable
// resource, at most 300 rounds).
constexpr MultiProbeGolden kMultiProbeGolden[] = {
    {"uniform", 3, "uniform", 1256025998959034184ULL, 5, 25750},
    {"uniform", 3, "matrix", 10796440507350331145ULL, 8, 21789},
    {"uniform", 3, "restricted-matrix", 14290055032285494342ULL, 8, 18390},
    {"uniform", 3, "bipartite", 6289617810648191128ULL, 29, 79603},
    {"adaptive", 2, "uniform", 3998797858974256543ULL, 4, 10549},
    {"adaptive", 2, "matrix", 12669181613503701075ULL, 4, 10106},
    {"adaptive", 2, "restricted-matrix", 7305673811368740036ULL, 4, 8831},
    {"adaptive", 2, "bipartite", 16503067843036486348ULL, 11, 31488},
    {"admission", 3, "uniform", 16312776588163003798ULL, 1, 17972},
    {"admission", 3, "matrix", 17575691169926614004ULL, 1, 17988},
    {"admission", 3, "restricted-matrix", 14225999250256578859ULL, 1, 15773},
    {"admission", 3, "bipartite", 8631243660941580372ULL, 300, 40988},
    // Captured at the commit before the sampling protocols merged into one
    // class, on the hypercube below.
    {"nbr-uniform", 3, "uniform", 15070425245535311380ULL, 28, 89348},
    {"nbr-uniform", 3, "matrix", 16130441433224765916ULL, 16, 36737},
    {"nbr-uniform", 3, "restricted-matrix", 17852506141223448088ULL, 20, 35239},
    {"nbr-uniform", 3, "bipartite", 14702432647424650199ULL, 76, 339278},
    {"nbr-admission", 3, "uniform", 17231929818938184975ULL, 300, 2745711},
    {"nbr-admission", 3, "matrix", 3196146403536492227ULL, 300, 958632},
    {"nbr-admission", 3, "restricted-matrix", 9414294402197697753ULL, 300,
     687702},
    {"nbr-admission", 3, "bipartite", 3765813311712494174ULL, 8, 46867},
};

TEST(MultiProbeGoldens, EveryProtocolModelThreadsModeCellMatchesCapture) {
  const std::size_t n = 2000, m = 32;
  // One generator stream builds the models in this order.
  Xoshiro256 gen_rng(0x5EED);
  struct Model {
    std::string name;
    Instance instance;
  };
  std::vector<Model> models;
  models.push_back({"uniform", make_uniform_feasible(n, m, 0.1, 1.5, gen_rng)});
  models.push_back({"matrix", make_zipf_rates(n, m, 0.1, 1.1, gen_rng)});
  models.push_back({"restricted-matrix", restricted_matrix(models[1].instance)});
  models.push_back(
      {"bipartite", make_clustered_bipartite(n, m, 8, 2, 0.1, gen_rng)});
  ASSERT_TRUE(models[2].instance.restricted());
  ASSERT_TRUE(models[3].instance.restricted());
  const Graph hypercube = make_hypercube(5);  // the nbr-* kinds' graph
  ASSERT_EQ(hypercube.num_vertices(), m);

  for (const MultiProbeGolden& golden : kMultiProbeGolden) {
    const Model* model = nullptr;
    for (const Model& candidate : models)
      if (candidate.name == golden.model) model = &candidate;
    ASSERT_NE(model, nullptr);
    ProtocolSpec spec;
    spec.kind = golden.protocol;
    spec.lambda = 0.5;
    spec.probes = golden.probes;
    spec.graph = &hypercube;
    const auto protocol = make_protocol(spec);

    std::vector<ResourceId> start(n, 0);
    if (model->instance.restricted())
      for (UserId u = 0; u < n; ++u)
        start[u] = model->instance.reachable(u).front();

    for (const std::size_t threads : {1, 4}) {
      for (const EngineMode mode : {EngineMode::kDense, EngineMode::kActive}) {
        State state(model->instance, std::vector<ResourceId>(start));
        EngineConfig config;
        config.max_rounds = 300;
        config.seed = 7;
        config.threads = threads;
        config.mode = mode;
        Xoshiro256 rng(99);
        const EngineResult result = Engine(config).run(*protocol, state, rng);
        state.check_invariants();
        const std::string cell = std::string(golden.protocol) + " k=" +
                                 std::to_string(golden.probes) + " x " +
                                 golden.model + " threads=" +
                                 std::to_string(threads) + " mode=" +
                                 (mode == EngineMode::kDense ? "dense" : "active");
        EXPECT_EQ(state_hash(state), golden.hash) << cell;
        EXPECT_EQ(result.rounds, golden.rounds) << cell;
        EXPECT_EQ(result.counters.messages(), golden.messages) << cell;
      }
    }
  }
}

}  // namespace
}  // namespace qoslb
