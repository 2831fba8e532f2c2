#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "rng/distributions.hpp"
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

// Random123's known-answer vectors for Philox4x32-10: the scalar block is the
// reference both batch keying kernels are checked against below.
TEST(Philox, BlockMatchesTheRandom123KnownAnswers) {
  using Ctr = Philox4x32::counter_type;
  EXPECT_EQ(Philox4x32::block({0, 0, 0, 0}, {0, 0}),
            (Ctr{0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8}));
  EXPECT_EQ(Philox4x32::block({0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff},
                              {0xffffffff, 0xffffffff}),
            (Ctr{0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd}));
  EXPECT_EQ(Philox4x32::block({0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344},
                              {0xa4093822, 0x299f31d0}),
            (Ctr{0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1}));
}

TEST(Philox, AtIsTheLowHalfOfOneBlock) {
  const std::uint64_t key = 0x0123456789abcdefULL;
  const std::uint64_t index = 0xfedcba9876543210ULL;
  const Philox4x32::counter_type out = Philox4x32::block(
      {0x76543210, 0xfedcba98, 0, 0}, {0x89abcdef, 0x01234567});
  EXPECT_EQ(Philox4x32::at(key, index),
            (static_cast<std::uint64_t>(out[1]) << 32) | out[0]);
}

// Every stream is keyed by (seed, round, user): only RoundRng::user_stream()
// and user_streams() can build one, so a raw-keyed engine does not compile,
// nor does an unkeyed one.
static_assert(!std::is_constructible_v<PhiloxEngine, std::uint64_t>);
static_assert(!std::is_default_constructible_v<PhiloxEngine>);

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

TEST(RoundRng, HostKeyingFollowsTheCpu) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  const bool avx512 = __builtin_cpu_supports("avx512f") != 0 &&
                      __builtin_cpu_supports("avx512dq") != 0 &&
                      __builtin_cpu_supports("avx512vl") != 0;
#else
  const bool avx2 = false;
  const bool avx512 = false;
#endif
  EXPECT_TRUE(RoundRng::supported(RoundRng::Keying::kScalar));
  EXPECT_EQ(RoundRng::supported(RoundRng::Keying::kAvx2), avx2);
  EXPECT_EQ(RoundRng::supported(RoundRng::Keying::kAvx512), avx512);
  EXPECT_EQ(RoundRng::host_keying(), avx512 ? RoundRng::Keying::kAvx512
                                     : avx2 ? RoundRng::Keying::kAvx2
                                            : RoundRng::Keying::kScalar);
}

/// user_streams() through `kernel`, into engines that start as copies of
/// an unrelated stream so that every field must be overwritten.
std::vector<PhiloxEngine> batch_streams(const RoundRng& streams,
                                        std::span<const std::uint32_t> users,
                                        RoundRng::Keying kernel) {
  std::vector<PhiloxEngine> out(users.size(),
                                RoundRng(99, 99).user_stream(12345));
  streams.user_streams(users, out.data(), kernel);
  return out;
}

/// All three batch kernels, each only where this CPU runs it.
class KeyingKernel : public ::testing::TestWithParam<RoundRng::Keying> {
 protected:
  void SetUp() override {
    if (!RoundRng::supported(GetParam()))
      GTEST_SKIP() << "this CPU does not run the kernel";
  }
};

TEST_P(KeyingKernel, EveryEngineDrawsWhatUserStreamDraws) {
  SplitMix64 pick(0x6b657973);
  const auto expect_same = [&](const RoundRng& streams,
                               const std::vector<std::uint32_t>& users) {
    std::vector<PhiloxEngine> batch = batch_streams(streams, users, GetParam());
    for (std::size_t i = 0; i < users.size(); ++i) {
      SCOPED_TRACE("user " + std::to_string(users[i]) + " at " +
                   std::to_string(i) + " of " + std::to_string(users.size()));
      PhiloxEngine scalar = streams.user_stream(users[i]);
      EXPECT_EQ(batch[i].key(), scalar.key());
      EXPECT_EQ(batch[i].position(), scalar.position());
      for (int draw = 0; draw < 8; ++draw) EXPECT_EQ(batch[i](), scalar());
      EXPECT_EQ(batch[i].position(), scalar.position());
    }
  };
  // Lengths 0-33 take every masked tail of the AVX-512 kernel (1-15 users,
  // alone and after a full step of 16), every scalar tail of the AVX2
  // kernel (1-3) and up to two full steps of each.
  for (int trial = 0; trial < 16; ++trial) {
    const RoundRng streams(pick(), pick());
    for (std::size_t length = 0; length <= 33; ++length) {
      std::vector<std::uint32_t> users(length);
      for (std::uint32_t& u : users) u = static_cast<std::uint32_t>(pick());
      expect_same(streams, users);
    }
    expect_same(streams, {0, 1, 0xffffffff, 7, 7, 0, 0xffffffff, 2, 2});
  }
}

// A bound of 2^63 + 1 makes Lemire's method reject about half of all draws,
// so many engines read past the two precomputed outputs mid-call. Every list
// length from 0 to 33 puts such engines in full steps and in masked tails.
TEST_P(KeyingKernel, RejectionAndBernoulliContinueTheSameStream) {
  const RoundRng streams(2024, 3);
  const std::uint64_t bound = (std::uint64_t{1} << 63) + 1;
  std::size_t past_head = 0;
  for (std::size_t length = 0; length <= 33; ++length) {
    std::vector<std::uint32_t> users(length);
    std::iota(users.begin(), users.end(), 1000u + 64u * length);
    std::vector<PhiloxEngine> batch = batch_streams(streams, users, GetParam());
    for (std::size_t i = 0; i < users.size(); ++i) {
      SCOPED_TRACE("user " + std::to_string(i) + " of " +
                   std::to_string(length));
      PhiloxEngine scalar = streams.user_stream(users[i]);
      EXPECT_EQ(uniform_u64_below(batch[i], bound),
                uniform_u64_below(scalar, bound));
      EXPECT_EQ(batch[i].position(), scalar.position());
      if (batch[i].position() > 1) ++past_head;
      EXPECT_EQ(bernoulli(batch[i], 0.3), bernoulli(scalar, 0.3));
      EXPECT_EQ(batch[i].position(), scalar.position());
    }
  }
  EXPECT_GT(past_head, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Rng, KeyingKernel,
    ::testing::Values(RoundRng::Keying::kScalar, RoundRng::Keying::kAvx2,
                      RoundRng::Keying::kAvx512),
    [](const ::testing::TestParamInfo<RoundRng::Keying>& kernel) {
      switch (kernel.param) {
        case RoundRng::Keying::kAvx2:
          return "Avx2";
        case RoundRng::Keying::kAvx512:
          return "Avx512";
        default:
          return "Scalar";
      }
    });

TEST(RoundRng, ForEachStreamKeysEveryUserInOrderAcrossChunks) {
  const RoundRng streams(77, 5);
  std::vector<std::uint32_t> users;
  for (std::uint32_t i = 0; i < 2 * RoundRng::kChunk + 3; ++i)
    users.push_back(3 * i + (i % 5 == 0 ? 0 : 1));
  std::vector<std::uint32_t> seen;
  streams.for_each_stream(users, [&](std::uint32_t u, PhiloxEngine& rng) {
    seen.push_back(u);
    PhiloxEngine scalar = streams.user_stream(u);
    for (int draw = 0; draw < 3; ++draw) EXPECT_EQ(rng(), scalar());
  });
  EXPECT_EQ(seen, users);
}

}  // namespace
}  // namespace qoslb
