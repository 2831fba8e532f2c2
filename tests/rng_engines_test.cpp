#include <gtest/gtest.h>

#include <set>
#include <type_traits>
#include <vector>

#include "rng/philox.hpp"
#include "rng/round_rng.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"

namespace qoslb {
namespace {

TEST(SplitMix64, KnownVector) {
  // Reference values for seed 1234567 from the canonical splitmix64.c.
  SplitMix64 rng(1234567);
  EXPECT_EQ(rng(), 6457827717110365317ULL);
  EXPECT_EQ(rng(), 3203168211198807973ULL);
  EXPECT_EQ(rng(), 9817491932198370423ULL);
}

TEST(SplitMix64, DeterministicPerSeed) {
  SplitMix64 a(42), b(42), c(43);
  const std::uint64_t va = a();
  EXPECT_EQ(va, b());
  EXPECT_NE(va, c());
}

TEST(Mix64, AvalanchesDistinctInputs) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t x = 0; x < 1000; ++x) outputs.insert(mix64(x));
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(DeriveSeed, ChildStreamsAreDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 1000; ++s) seeds.insert(derive_seed(7, s));
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(DeriveSeed, DependsOnRoot) {
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
}

TEST(Xoshiro256, DeterministicPerSeed) {
  Xoshiro256 a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LE(equal, 1);
}

TEST(Xoshiro256, JumpChangesState) {
  Xoshiro256 a(5);
  Xoshiro256 b = a;
  b.jump();
  EXPECT_FALSE(a == b);
  // Jumped stream does not collide with the base stream early on.
  std::set<std::uint64_t> base;
  for (int i = 0; i < 1000; ++i) base.insert(a());
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(base.count(b()), 0u);
}

TEST(Xoshiro256, SplitStreamsAreIndependentlyDeterministic) {
  Xoshiro256 root(77);
  Xoshiro256 s1 = root.split(1);
  Xoshiro256 s2 = root.split(2);
  Xoshiro256 s1_again = root.split(1);
  EXPECT_TRUE(s1 == s1_again);
  EXPECT_FALSE(s1 == s2);
}

TEST(Xoshiro256, OutputLooksUniformInHighBit) {
  Xoshiro256 rng(2024);
  int ones = 0;
  const int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i)
    if (rng() >> 63) ++ones;
  EXPECT_NEAR(ones, kDraws / 2, 300);  // ±6 sigma
}

TEST(Philox, BlockIsDeterministic) {
  const Philox4x32::counter_type c{1, 2, 3, 4};
  const Philox4x32::key_type k{5, 6};
  EXPECT_EQ(Philox4x32::block(c, k), Philox4x32::block(c, k));
}

TEST(Philox, CounterChangesOutput) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) outputs.insert(Philox4x32::at(9, i));
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(Philox, KeyChangesOutput) {
  EXPECT_NE(Philox4x32::at(1, 0), Philox4x32::at(2, 0));
}

// Every stream is keyed by (seed, round, user): only RoundRng::user_stream()
// can build one, so a raw-keyed engine does not compile.
static_assert(!std::is_constructible_v<PhiloxEngine, std::uint64_t>);

TEST(PhiloxEngine, RandomAccessMatchesSequential) {
  const RoundRng streams(123, 0);
  PhiloxEngine seq = streams.user_stream(0);
  std::vector<std::uint64_t> first(10);
  for (auto& v : first) v = seq();

  PhiloxEngine seek = streams.user_stream(0);
  seek.seek(5);
  EXPECT_EQ(seek(), first[5]);
  EXPECT_EQ(seek.position(), 6u);
}

TEST(PhiloxEngine, StreamsDoNotInterfere) {
  const RoundRng streams(1, 0);
  PhiloxEngine a = streams.user_stream(1);
  PhiloxEngine b = streams.user_stream(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LE(equal, 1);
}

}  // namespace
}  // namespace qoslb
