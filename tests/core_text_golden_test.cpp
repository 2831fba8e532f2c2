// Byte goldens for every text format the library writes: checkpoints in
// each rate-model form, instance files and state files. The expected texts
// are inline and were produced by the writers before they shared one codec
// (core/io/text_codec.hpp), so a change to any keyword, field order, number
// format or block layout fails here. The checkpoint's model section and the
// instance file's body are the same literal, which pins that the two
// formats share it. Each golden also reads back and rewrites to itself.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/io/instance_io.hpp"
#include "core/snapshot.hpp"

namespace qoslb {
namespace {

RateModel fixed_rates(RateModelKind kind) {
  switch (kind) {
    case RateModelKind::kUniform:
      return RateModel::uniform();
    case RateModelKind::kMatrix:
      return RateModel::matrix(4, 3,
                               {1.0, 0.5, 0.0,         //
                                0.25, 1.0 / 3.0, 2.0,  //
                                0.0, 0.0, 1.5,         //
                                1e-3, 0.75, 1.0 / 7.0});
    case RateModelKind::kBipartite:
      return RateModel::bipartite(4, 3,
                                  {{0, 0, 1.0},
                                   {0, 2, 0.5},
                                   {1, 1, 1.25},
                                   {2, 0, 2.0 / 3.0},
                                   {3, 1, 0.1},
                                   {3, 2, 4.0}});
  }
  return RateModel::uniform();
}

Instance fixed_instance(RateModelKind kind) {
  return Instance({2.5, 1.0 / 3.0, 7.0}, {0.1, 1.0, 0.75, 2.0},
                  fixed_rates(kind));
}

/// Every counter and churn field is non-zero and distinct, so a field
/// written under the wrong keyword or in the wrong order shows.
SnapshotV1 fixed_snapshot(RateModelKind kind) {
  SnapshotV1 s;
  s.protocol = "adaptive(k=2)";
  s.next_round = 12;
  s.master_seed = 18446744073709551557ULL;
  s.capacities = {2.5, 1.0 / 3.0, 7.0};
  s.requirements = {0.1, 1.0, 0.75, 2.0};
  s.rate_model = fixed_rates(kind);
  s.assignment = {0, 1, 2, 1};
  s.live = {1, 1, 0};
  s.counters.probes = 101;
  s.counters.migrate_requests = 102;
  s.counters.grants = 103;
  s.counters.rejects = 104;
  s.counters.migrations = 105;
  s.counters.rounds = 12;
  s.counters.events = 107;
  s.counters.timeouts = 108;
  s.counters.retries = 109;
  s.counters.stale_drops = 110;
  s.churn.stats.failures = 2;
  s.churn.stats.recoveries = 1;
  s.churn.stats.evicted = 17;
  s.churn.stats.max_dip_depth = 0.1 + 0.2;
  s.churn.stats.max_recovery_rounds = 5;
  s.churn.stats.dip_open = true;
  s.churn.in_dip = true;
  s.churn.dip_start_round = 9;
  s.churn.baseline_satisfied = 4;
  s.churn.min_satisfied = 3;
  s.protocol_state = "last_intents 0\nprev_intents 0\n";
  return s;
}

constexpr char kScalars[] = R"(resources 3
2.5
0.33333333333333331
7
users 4
0.10000000000000001
1
0.75
2
)";

std::string model_section(RateModelKind kind) {
  switch (kind) {
    case RateModelKind::kUniform:
      return std::string(kScalars) + "rate_model uniform\n";
    case RateModelKind::kMatrix:
      return std::string(kScalars) + R"(rate_model matrix
rates 12
1
0.5
0
0.25
0.33333333333333331
2
0
0
1.5
0.001
0.75
0.14285714285714285
)";
    case RateModelKind::kBipartite:
      return std::string(kScalars) + R"(rate_model bipartite
edges 6
0 0 1
0 2 0.5
1 1 1.25
2 0 0.66666666666666663
3 1 0.10000000000000001
3 2 4
)";
  }
  return {};
}

constexpr char kSnapshotHead[] = R"(qoslb-snapshot v2
protocol adaptive(k=2)
next_round 12
master_seed 18446744073709551557
)";

constexpr char kSnapshotTail[] = R"(assignment 4
0
1
2
1
live 3
1
1
0
counters 10
probes 101
migrate_requests 102
grants 103
rejects 104
migrations 105
rounds 12
events 107
timeouts 108
retries 109
stale_drops 110
churn 10
failures 2
recoveries 1
evicted 17
max_dip_depth 0.30000000000000004
max_recovery_rounds 5
dip_open 1
in_dip 1
dip_start_round 9
baseline_satisfied 4
min_satisfied 3
protocol_state 2
last_intents 0
prev_intents 0
)";

void expect_snapshot_golden(RateModelKind kind) {
  const std::string golden = kSnapshotHead + model_section(kind) + kSnapshotTail;
  std::ostringstream written;
  write_snapshot(written, fixed_snapshot(kind));
  EXPECT_EQ(written.str(), golden);

  std::istringstream in(golden);
  std::ostringstream rewritten;
  write_snapshot(rewritten, read_snapshot(in));
  EXPECT_EQ(rewritten.str(), golden);
}

void expect_instance_golden(RateModelKind kind) {
  const std::string golden = "qoslb-instance v2\n" + model_section(kind);
  std::ostringstream written;
  write_instance(written, fixed_instance(kind));
  EXPECT_EQ(written.str(), golden);

  std::istringstream in(golden);
  std::ostringstream rewritten;
  write_instance(rewritten, read_instance(in));
  EXPECT_EQ(rewritten.str(), golden);
}

TEST(TextGolden, SnapshotUniform) { expect_snapshot_golden(RateModelKind::kUniform); }

TEST(TextGolden, SnapshotMatrix) { expect_snapshot_golden(RateModelKind::kMatrix); }

TEST(TextGolden, SnapshotBipartite) {
  expect_snapshot_golden(RateModelKind::kBipartite);
}

TEST(TextGolden, InstanceUniform) { expect_instance_golden(RateModelKind::kUniform); }

TEST(TextGolden, InstanceMatrix) { expect_instance_golden(RateModelKind::kMatrix); }

TEST(TextGolden, InstanceBipartite) {
  expect_instance_golden(RateModelKind::kBipartite);
}

TEST(TextGolden, State) {
  const Instance instance = fixed_instance(RateModelKind::kUniform);
  const std::string golden = "qoslb-state v1\nusers 4\n2\n0\n1\n2\n";
  std::ostringstream written;
  write_state(written, State(instance, {2, 0, 1, 2}));
  EXPECT_EQ(written.str(), golden);

  std::istringstream in(golden);
  std::ostringstream rewritten;
  write_state(rewritten, read_state(in, instance));
  EXPECT_EQ(rewritten.str(), golden);
}

}  // namespace
}  // namespace qoslb
