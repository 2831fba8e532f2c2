// Seeded mutation fuzz of every text reader: checkpoints (v1, v2 in each
// rate-model form), instance files (v1, v2), state files and the adaptive
// protocol's checkpoint block. Valid texts written by a short real run are
// mutated by the Philox-keyed mutator of text_mutator.hpp (byte flips,
// dropped and duplicated lines, number tokens swapped for huge or negative
// values), and every reader must either return a value or throw
// std::invalid_argument: never another exception type, a crash, or an
// allocation sized from a count the input merely claims. The seed and
// iteration count are fixed, so a failure reproduces exactly; the failing
// input is printed.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/io/instance_io.hpp"
#include "core/protocols/sampling.hpp"
#include "core/snapshot.hpp"
#include "qoslb.hpp"
#include "rng/round_rng.hpp"
#include "text_mutator.hpp"

namespace qoslb {
namespace {

constexpr std::uint64_t kSeed = 0x7E47F022;
constexpr std::uint64_t kIterations = 300;

/// Runs `read` over kIterations mutants of `valid` (stream `stream` of the
/// fixed seed) and checks the reader contract. The unmutated text must read,
/// and the mutants must include both accepted and refused inputs, so the
/// fuzz exercises both paths.
void fuzz(std::uint64_t stream, const std::string& valid,
          const std::function<void(std::istream&)>& read) {
  std::istringstream original(valid);
  ASSERT_NO_THROW(read(original));
  const RoundRng streams(kSeed, stream);
  std::uint64_t accepted = 0;
  std::uint64_t refused = 0;
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    PhiloxEngine rng = streams.user_stream(i);
    const std::string text = mutate(valid, rng);
    std::istringstream in(text);
    try {
      read(in);
      ++accepted;
    } catch (const std::invalid_argument&) {
      ++refused;
    } catch (const std::exception& error) {
      FAIL() << "mutant " << i << " threw a non-std::invalid_argument error: "
             << error.what() << "\n--- input ---\n"
             << text;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
}

/// A small world in each rate model, its start state and a checkpoint of
/// a short adaptive run taken mid-dip, so every block carries data.
struct Texts {
  std::vector<Instance> worlds;
  std::string instance[3];
  std::string snapshot[3];
  std::string state;
  std::string adaptive_block;
};

const Texts& texts() {
  static const Texts kTexts = [] {
    Texts t;
    Xoshiro256 world_rng(5);
    t.worlds.push_back(make_uniform_feasible(12, 4, 0.2, 1.5, world_rng));
    t.worlds.push_back(make_zipf_rates(12, 4, 0.2, 1.1, world_rng));
    t.worlds.push_back(make_clustered_bipartite(12, 4, 2, 1, 0.2, world_rng));
    for (std::size_t k = 0; k < t.worlds.size(); ++k) {
      const Instance& world = t.worlds[k];
      std::ostringstream instance;
      write_instance(instance, world);
      t.instance[k] = instance.str();
      State state = State::random(world, world_rng);
      if (k == 0) {
        std::ostringstream start;
        write_state(start, state);
        t.state = start.str();
      }
      ProtocolSpec spec;
      spec.kind = "adaptive";
      spec.lambda = 1.0;
      const auto protocol = make_protocol(spec);
      EngineConfig config;
      config.max_rounds = 50;
      config.churn.fail(1, 1).recover(6, 1);
      Xoshiro256 run_rng(k + 1);
      const SnapshotV1 snapshot =
          Engine(config).save_snapshot(*protocol, state, run_rng, 4);
      std::ostringstream checkpoint;
      write_snapshot(checkpoint, snapshot);
      t.snapshot[k] = checkpoint.str();
      if (k == 0) t.adaptive_block = snapshot.protocol_state;
    }
    return t;
  }();
  return kTexts;
}

/// The v1 layout of a uniform-rate v2 text: older magic, no rate_model line.
std::string as_v1(std::string text, const std::string& magic_v2) {
  const std::string block = "rate_model uniform\n";
  text.erase(text.find(block), block.size());
  text.replace(text.find(magic_v2), magic_v2.size(),
               magic_v2.substr(0, magic_v2.size() - 1) + "1");
  return text;
}

void read_checkpoint(std::istream& in) {
  const SnapshotV1 snapshot = read_snapshot(in);
  const Instance instance = snapshot.make_instance();
  snapshot.make_state(instance);
}

TEST(TextFuzz, SnapshotV1) {
  fuzz(0, as_v1(texts().snapshot[0], "qoslb-snapshot v2"), read_checkpoint);
}

TEST(TextFuzz, SnapshotV2) {
  for (std::uint64_t k = 0; k < 3; ++k) {
    SCOPED_TRACE("rate model " + std::to_string(k));
    fuzz(1 + k, texts().snapshot[k], read_checkpoint);
  }
}

TEST(TextFuzz, InstanceV1) {
  fuzz(4, as_v1(texts().instance[0], "qoslb-instance v2"),
       [](std::istream& in) { read_instance(in); });
}

TEST(TextFuzz, InstanceV2) {
  for (std::uint64_t k = 0; k < 3; ++k) {
    SCOPED_TRACE("rate model " + std::to_string(k));
    fuzz(5 + k, texts().instance[k], [](std::istream& in) { read_instance(in); });
  }
}

TEST(TextFuzz, StateV1) {
  fuzz(8, texts().state,
       [](std::istream& in) { read_state(in, texts().worlds[0]); });
}

TEST(TextFuzz, AdaptiveProtocolBlock) {
  ASSERT_FALSE(texts().adaptive_block.empty());
  fuzz(9, texts().adaptive_block, [](std::istream& in) {
    SamplingProtocol protocol(SamplingProtocol::Rule::kAdaptive);
    protocol.snapshot_read(in);
  });
}

}  // namespace
}  // namespace qoslb
