// Crash-consistent checkpoint/restore (core/snapshot.hpp, docs/faults.md).
//
// The contract under test: a run killed at any checkpointed round boundary
// and restored through the on-disk SnapshotV1 text format continues to a
// final state that is bit-identical to the uninterrupted run — same
// assignment, liveness, counters, round count, and degradation metrics —
// for every sharded protocol, every thread count in {1,2,4,8}, and both
// engine modes, including kills taken mid-dip with churn events still
// pending. Plus: the text format round-trips value-exactly, rejects
// malformed and version-skewed input loudly, and the state fingerprint is
// sensitive to both assignment and liveness.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/protocols/sampling.hpp"
#include "core/snapshot.hpp"
#include "net/generators.hpp"
#include "qoslb.hpp"

namespace qoslb {
namespace {

Instance test_instance(std::size_t n, std::size_t m, std::uint64_t seed = 1) {
  Xoshiro256 rng(seed);
  return make_uniform_feasible(n, m, 0.5, 1.5, rng);
}

std::vector<ResourceId> assignment_of(const State& state) {
  std::vector<ResourceId> assignment(state.num_users());
  for (UserId u = 0; u < state.num_users(); ++u)
    assignment[u] = state.resource_of(u);
  return assignment;
}

/// Compares every field of T's (keyword, member) list: Counters, ChurnStats
/// or ChurnTracker.
template <class T>
void expect_fields_eq(const T& a, const T& b, const std::string& label) {
  T::for_each_field(
      [&label](const char* name, const auto& x, const auto& y) {
        EXPECT_EQ(x, y) << label << ": " << name;
      },
      a, b);
}

struct ShardedCase {
  std::string kind;
  double lambda;
};

const std::vector<ShardedCase>& sharded_cases() {
  static const std::vector<ShardedCase> kCases = {
      {"uniform", 0.5},      {"adaptive", 1.0},      {"admission", 1.0},
      {"nbr-uniform", 0.5},  {"nbr-admission", 1.0}, {"berenbrink", 1.0}};
  return kCases;
}

std::string case_name(const ::testing::TestParamInfo<ShardedCase>& info) {
  std::string name = info.param.kind;
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

/// The churn plan used by the kill/restore matrix: two failures, two
/// recoveries, so a mid-schedule kill carries an open dip and pending
/// events across the checkpoint.
ChurnPlan test_plan() {
  ChurnPlan plan;
  plan.fail(2, 3).fail(6, 5).recover(30, 3).recover(40, 5);
  return plan;
}

// ---- kill/restore bit-identity across the full matrix ----

class KillRestore : public ::testing::TestWithParam<ShardedCase> {};

TEST_P(KillRestore, ResumedRunMatchesUninterruptedEverywhere) {
  const ShardedCase& param = GetParam();
  const Instance instance = test_instance(1200, 24);
  const Graph ring = make_ring(24);
  const auto make_proto = [&] {
    ProtocolSpec spec;
    spec.kind = param.kind;
    spec.lambda = param.lambda;
    spec.graph = &ring;
    return make_protocol(spec);
  };

  // Uninterrupted baseline (threads=1 dense is the reference realization;
  // thread/mode invariance of the baseline itself is covered by
  // core_engine_test and ChurnedRunIsThreadAndModeInvariant).
  EngineConfig config;
  config.max_rounds = 300;
  config.shard_size = 128;
  config.churn = test_plan();
  config.invariant_check_period = 16;
  std::vector<SnapshotV1> snapshots;
  config.snapshot_rounds = {1, 10, 35};  // pre-dip, mid-dip, pre-recovery
  config.snapshot_sink = [&snapshots](const SnapshotV1& snapshot) {
    snapshots.push_back(snapshot);
  };
  State baseline_state = State::all_on(instance, 0);
  const auto baseline_protocol = make_proto();
  Xoshiro256 rng(77);
  const EngineResult baseline =
      Engine(config).run(*baseline_protocol, baseline_state, rng);
  ASSERT_EQ(snapshots.size(), 3u)
      << param.kind << ": baseline ended at round " << baseline.rounds;
  const std::vector<ResourceId> baseline_assignment =
      assignment_of(baseline_state);
  const std::uint64_t baseline_hash = state_hash(baseline_state);

  EngineConfig resume_config = config;
  resume_config.snapshot_rounds.clear();
  resume_config.snapshot_sink = nullptr;
  for (const SnapshotV1& snapshot : snapshots) {
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      for (const EngineMode mode : {EngineMode::kDense, EngineMode::kActive}) {
        const std::string label =
            param.kind + " kill=" + std::to_string(snapshot.next_round) +
            " threads=" + std::to_string(threads) +
            (mode == EngineMode::kActive ? " active" : " dense");
        // Kill: round-trip the checkpoint through the text format, as a
        // restart from disk would.
        std::stringstream disk;
        write_snapshot(disk, snapshot);
        const SnapshotV1 restored = read_snapshot(disk);

        const Instance resumed_instance = restored.make_instance();
        State resumed_state = restored.make_state(resumed_instance);
        const auto resumed_protocol = make_proto();
        resume_config.threads = threads;
        resume_config.mode = mode;
        const EngineResult resumed = Engine(resume_config)
                                         .resume(*resumed_protocol, restored,
                                                 resumed_state);
        resumed_state.check_invariants();

        EXPECT_EQ(assignment_of(resumed_state), baseline_assignment) << label;
        EXPECT_EQ(state_hash(resumed_state), baseline_hash) << label;
        EXPECT_EQ(resumed.rounds, baseline.rounds) << label;
        EXPECT_EQ(resumed.converged, baseline.converged) << label;
        EXPECT_EQ(resumed.final_satisfied, baseline.final_satisfied) << label;
        expect_fields_eq(resumed.counters, baseline.counters, label);
        expect_fields_eq(resumed.churn, baseline.churn, label);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllShardedProtocols, KillRestore,
                         ::testing::ValuesIn(sharded_cases()), case_name);

// ---- save_snapshot convenience + format round-trip ----

TEST(Snapshot, SaveSnapshotRoundTripsValueExactly) {
  // adaptive carries real cross-round protocol state, so this exercises the
  // protocol_state block too.
  const Instance instance = test_instance(500, 16);
  State state = State::all_on(instance, 0);
  ProtocolSpec spec;
  spec.kind = "adaptive";
  spec.lambda = 1.0;
  const auto protocol = make_protocol(spec);
  EngineConfig config;
  config.max_rounds = 200;
  config.churn.fail(1, 2).recover(8, 2);
  Xoshiro256 rng(5);
  const SnapshotV1 snapshot =
      Engine(config).save_snapshot(*protocol, state, rng, 4);

  EXPECT_EQ(snapshot.next_round, 4u);
  EXPECT_EQ(snapshot.protocol, protocol->name());
  EXPECT_FALSE(snapshot.protocol_state.empty());
  EXPECT_EQ(snapshot.live[2], 0) << "checkpoint taken mid-failure";

  std::stringstream disk;
  write_snapshot(disk, snapshot);
  const SnapshotV1 restored = read_snapshot(disk);
  EXPECT_EQ(restored.protocol, snapshot.protocol);
  EXPECT_EQ(restored.next_round, snapshot.next_round);
  EXPECT_EQ(restored.master_seed, snapshot.master_seed);
  EXPECT_EQ(restored.capacities, snapshot.capacities);  // bit-exact doubles
  EXPECT_EQ(restored.requirements, snapshot.requirements);
  EXPECT_EQ(restored.assignment, snapshot.assignment);
  EXPECT_EQ(restored.live, snapshot.live);
  expect_fields_eq(restored.counters, snapshot.counters, "counters");
  expect_fields_eq(restored.churn, snapshot.churn, "churn");
  EXPECT_EQ(restored.protocol_state, snapshot.protocol_state);
}

// Only adaptive keeps state across rounds, so only its checkpoint carries a
// protocol block. KillRestore round-trips whatever is written, so it would
// not notice a protocol that wrote empty intent blocks for every kind.
TEST(Snapshot, OnlyAdaptiveCarriesProtocolState) {
  const Instance instance = test_instance(1200, 24);
  const Graph ring = make_ring(24);
  std::size_t kinds = 0;
  for (const ProtocolInfo& info : protocol_registry()) {
    if (!info.traits.sharded) continue;
    ++kinds;
    ProtocolSpec spec;
    spec.kind = info.name;
    spec.lambda = 0.5;
    spec.graph = &ring;
    const auto protocol = make_protocol(spec);
    State state = State::all_on(instance, 0);
    EngineConfig config;
    config.max_rounds = 300;
    config.churn = test_plan();  // pending events veto early convergence
    Xoshiro256 rng(77);
    const SnapshotV1 snapshot =
        Engine(config).save_snapshot(*protocol, state, rng, 2);
    if (info.name == "adaptive") {
      EXPECT_EQ(snapshot.protocol_state.rfind("last_intents", 0), 0u)
          << snapshot.protocol_state;
    } else {
      EXPECT_EQ(snapshot.protocol_state, "") << info.name;
    }
  }
  EXPECT_EQ(kinds, sharded_cases().size());
}

TEST(Snapshot, SaveSnapshotRejectsUnreachableRound) {
  const Instance instance = test_instance(200, 8);
  State state = State::all_on(instance, 0);
  ProtocolSpec spec;
  spec.kind = "uniform";
  spec.lambda = 0.5;
  const auto protocol = make_protocol(spec);
  EngineConfig config;
  config.max_rounds = 3;
  Xoshiro256 rng(5);
  EXPECT_THROW(Engine(config).save_snapshot(*protocol, state, rng, 100),
               std::invalid_argument);
}

// step() protocols draw from the caller's Xoshiro256, whose state a
// checkpoint does not carry, so every checkpoint entry point refuses them.
TEST(Snapshot, StepProtocolsCannotBeCheckpointed) {
  const Instance instance = test_instance(200, 8);
  ProtocolSpec spec;
  spec.kind = "seq-br";
  const auto protocol = make_protocol(spec);
  EngineConfig config;
  config.snapshot_rounds = {1};
  config.snapshot_sink = [](const SnapshotV1&) {};
  State state = State::all_on(instance, 0);
  Xoshiro256 rng(5);
  EXPECT_THROW(Engine(config).run(*protocol, state, rng),
               std::invalid_argument);
  EXPECT_THROW(Engine(EngineConfig{}).save_snapshot(*protocol, state, rng, 1),
               std::invalid_argument);
}

TEST(Snapshot, ResumeRejectsStepProtocols) {
  const Instance instance = test_instance(200, 8);
  ProtocolSpec sharded;
  sharded.kind = "uniform";
  sharded.lambda = 0.5;
  const auto uniform = make_protocol(sharded);
  State state = State::all_on(instance, 0);
  Xoshiro256 rng(5);
  const SnapshotV1 snapshot =
      Engine(EngineConfig{}).save_snapshot(*uniform, state, rng, 1);

  ProtocolSpec step;
  step.kind = "seq-br";
  const auto seq_br = make_protocol(step);
  State restored = snapshot.make_state(instance);
  EXPECT_THROW(Engine(EngineConfig{}).resume(*seq_br, snapshot, restored),
               std::invalid_argument);
}

// ---- malformed input is rejected loudly ----

std::string valid_snapshot_text() {
  SnapshotV1 snapshot;
  snapshot.protocol = "uniform(0.5)";
  snapshot.next_round = 7;
  snapshot.master_seed = 42;
  snapshot.capacities = {2.0, 3.0};
  snapshot.requirements = {1.0, 1.0, 1.0};
  snapshot.assignment = {0, 1, 0};
  snapshot.live = {1, 1};
  std::ostringstream out;
  write_snapshot(out, snapshot);
  return out.str();
}

SnapshotV1 parse(const std::string& text) {
  std::istringstream in(text);
  return read_snapshot(in);
}

TEST(Snapshot, ReaderAcceptsItsOwnWriter) {
  const SnapshotV1 snapshot = parse(valid_snapshot_text());
  EXPECT_EQ(snapshot.protocol, "uniform(0.5)");
  EXPECT_EQ(snapshot.next_round, 7u);
  const Instance instance = snapshot.make_instance();
  EXPECT_EQ(instance.num_users(), 3u);
  EXPECT_EQ(instance.num_resources(), 2u);
  const State state = snapshot.make_state(instance);
  EXPECT_EQ(state.resource_of(1), 1u);
}

TEST(Snapshot, ReaderRejectsUnknownVersion) {
  std::string text = valid_snapshot_text();
  const std::size_t pos = text.find("v2");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 2, "v3");
  EXPECT_THROW(parse(text), std::invalid_argument);
}

TEST(Snapshot, ReaderAcceptsLegacyV1WithoutRateModelBlock) {
  // A v1 checkpoint has no rate_model block; it must read back as the
  // uniform model, exactly as pre-v2 writers produced it.
  std::string text = valid_snapshot_text();
  const std::size_t magic = text.find("v2");
  ASSERT_NE(magic, std::string::npos);
  text.replace(magic, 2, "v1");
  const std::size_t block = text.find("rate_model uniform\n");
  ASSERT_NE(block, std::string::npos);
  text.erase(block, std::string("rate_model uniform\n").size());
  const SnapshotV1 snapshot = parse(text);
  EXPECT_TRUE(snapshot.rate_model.is_uniform());
  EXPECT_EQ(snapshot.make_instance().num_users(), 3u);
}

TEST(Snapshot, ReaderRejectsTruncation) {
  const std::string text = valid_snapshot_text();
  // Chop at several depths; every prefix must fail, never crash or return
  // a half-built snapshot.
  for (const double frac : {0.15, 0.5, 0.9}) {
    const std::string prefix =
        text.substr(0, static_cast<std::size_t>(text.size() * frac));
    EXPECT_THROW(parse(prefix), std::invalid_argument) << "frac=" << frac;
  }
}

TEST(Snapshot, ReaderRejectsOutOfRangeAssignment) {
  std::string text = valid_snapshot_text();
  const std::size_t pos = text.find("assignment 3");
  ASSERT_NE(pos, std::string::npos);
  // Resource 9 does not exist in a 2-resource world.
  text.replace(text.find('\n', pos) + 1, 1, "9");
  EXPECT_THROW(parse(text), std::invalid_argument);
}

TEST(Snapshot, ReaderRejectsNonBinaryLiveBit) {
  std::string text = valid_snapshot_text();
  const std::size_t pos = text.find("live 2");
  ASSERT_NE(pos, std::string::npos);
  text.replace(text.find('\n', pos) + 1, 1, "7");
  EXPECT_THROW(parse(text), std::invalid_argument);
}

// A count line is only a claim: the reader must refuse it with
// std::invalid_argument when the entries are missing, whatever the count,
// and never size a buffer from it first (2^62 used to throw
// std::length_error, 2^40 std::bad_alloc).
TEST(Snapshot, ReaderRejectsHugeCountsAsInvalidArgument) {
  const std::string head =
      "qoslb-snapshot v2\nprotocol uniform(0.5)\nnext_round 0\n"
      "master_seed 1\n";
  for (const char* count : {"4611686018427387904", "1099511627776",
                            "18446744073709551615"}) {
    EXPECT_THROW(parse(head + "resources " + count + "\n1.0\n"),
                 std::invalid_argument)
        << count;
    EXPECT_THROW(parse(head + "resources 1\n1.0\nusers " + count + "\n1.0\n"),
                 std::invalid_argument)
        << count;
  }
  EXPECT_THROW(parse(head + "resources 18446744073709551616\n1.0\n"),
               std::invalid_argument);
}

TEST(Snapshot, AdaptiveStateRejectsHugeCountsAsInvalidArgument) {
  for (const char* count : {"4611686018427387904", "1099511627776"}) {
    SamplingProtocol protocol(SamplingProtocol::Rule::kAdaptive);
    std::istringstream in(std::string("last_intents ") + count + "\n3\n");
    EXPECT_THROW(protocol.snapshot_read(in), std::invalid_argument) << count;
  }
  SamplingProtocol protocol(SamplingProtocol::Rule::kAdaptive);
  std::istringstream valid("last_intents 2\n3\n0\nprev_intents 0\n");
  EXPECT_NO_THROW(protocol.snapshot_read(valid));
}

TEST(Snapshot, MakeStateRejectsUsersOnDeadResources) {
  SnapshotV1 snapshot;
  snapshot.protocol = "uniform(0.5)";
  snapshot.capacities = {2.0, 3.0};
  snapshot.requirements = {1.0, 1.0};
  snapshot.assignment = {0, 1};
  snapshot.live = {1, 0};  // user 1 sits on the dead resource
  const Instance instance = snapshot.make_instance();
  EXPECT_THROW(snapshot.make_state(instance), std::invalid_argument);
}

// ---- resume preconditions ----

TEST(Snapshot, ResumeRejectsProtocolMismatch) {
  const Instance instance = test_instance(300, 8);
  State state = State::all_on(instance, 0);
  ProtocolSpec spec;
  spec.kind = "uniform";
  spec.lambda = 0.5;
  const auto protocol = make_protocol(spec);
  EngineConfig config;
  config.max_rounds = 100;
  Xoshiro256 rng(9);
  const SnapshotV1 snapshot =
      Engine(config).save_snapshot(*protocol, state, rng, 2);

  ProtocolSpec other_spec;
  other_spec.kind = "admission";
  other_spec.lambda = 1.0;
  const auto other = make_protocol(other_spec);
  const Instance resumed_instance = snapshot.make_instance();
  State resumed_state = snapshot.make_state(resumed_instance);
  EXPECT_THROW(Engine(config).resume(*other, snapshot, resumed_state),
               std::invalid_argument);
}

// The nbr-* names encode k as the other kinds do, so a k = 3 checkpoint
// cannot resume under a k = 1 protocol: with both named
// "nbr-uniform(lambda=0.5)" it resumed without error and diverged.
TEST(Snapshot, ResumeRejectsNbrCheckpointWithAnotherProbeCount) {
  const Instance instance = test_instance(2000, 16);
  const Graph ring = make_ring(16);
  for (const char* kind : {"nbr-uniform", "nbr-admission"}) {
    ProtocolSpec spec;
    spec.kind = kind;
    spec.lambda = 0.5;
    spec.probes = 3;
    spec.graph = &ring;
    const auto protocol = make_protocol(spec);
    State state = State::all_on(instance, 0);
    EngineConfig config;
    config.max_rounds = 100;
    config.churn = test_plan();  // pending events veto early convergence
    Xoshiro256 rng(9);
    const SnapshotV1 snapshot =
        Engine(config).save_snapshot(*protocol, state, rng, 2);

    spec.probes = 1;
    const auto single_probe = make_protocol(spec);
    const Instance resumed_instance = snapshot.make_instance();
    State resumed_state = snapshot.make_state(resumed_instance);
    EXPECT_THROW(Engine(config).resume(*single_probe, snapshot, resumed_state),
                 std::invalid_argument)
        << kind;
  }
}

// A lambda kind's name carries lambda exactly, so a checkpoint taken at
// lambda = 0.5000001 does not resume under lambda = 0.5 (six significant
// digits named both "uniform(lambda=0.5)").
TEST(Snapshot, ResumeRejectsCheckpointWithANearbyLambda) {
  const Instance instance = test_instance(2000, 16);
  ProtocolSpec spec;
  spec.kind = "uniform";
  spec.lambda = 0.5000001;
  const auto protocol = make_protocol(spec);
  State state = State::all_on(instance, 0);
  EngineConfig config;
  config.max_rounds = 100;
  config.churn = test_plan();  // pending events veto early convergence
  Xoshiro256 rng(9);
  const SnapshotV1 snapshot =
      Engine(config).save_snapshot(*protocol, state, rng, 2);
  EXPECT_EQ(snapshot.protocol, "uniform(lambda=0.5000001)");

  spec.lambda = 0.5;
  const auto rounded = make_protocol(spec);
  const Instance resumed_instance = snapshot.make_instance();
  State resumed_state = snapshot.make_state(resumed_instance);
  EXPECT_THROW(Engine(config).resume(*rounded, snapshot, resumed_state),
               std::invalid_argument);
}

TEST(Snapshot, ResumeRejectsMismatchedState) {
  const Instance instance = test_instance(300, 8);
  State state = State::all_on(instance, 0);
  ProtocolSpec spec;
  spec.kind = "uniform";
  spec.lambda = 0.5;
  const auto protocol = make_protocol(spec);
  EngineConfig config;
  config.max_rounds = 100;
  Xoshiro256 rng(9);
  const SnapshotV1 snapshot =
      Engine(config).save_snapshot(*protocol, state, rng, 2);

  const Instance resumed_instance = snapshot.make_instance();
  State wrong = snapshot.make_state(resumed_instance);
  wrong.move(0, wrong.resource_of(0) == 0 ? 1 : 0);
  const auto fresh = make_protocol(spec);
  EXPECT_THROW(Engine(config).resume(*fresh, snapshot, wrong),
               std::invalid_argument);
}

// ---- the fingerprint ----

TEST(Snapshot, StateHashSeesAssignmentAndLiveness) {
  const Instance instance = test_instance(50, 4);
  State a = State::all_on(instance, 0);
  State b = State::all_on(instance, 0);
  EXPECT_EQ(state_hash(a), state_hash(b));

  b.move(7, 2);
  EXPECT_NE(state_hash(a), state_hash(b)) << "assignment change must show";
  b.move(7, 0);
  EXPECT_EQ(state_hash(a), state_hash(b));

  b.set_resource_live(3, false);
  EXPECT_NE(state_hash(a), state_hash(b)) << "liveness change must show";
}

}  // namespace
}  // namespace qoslb
