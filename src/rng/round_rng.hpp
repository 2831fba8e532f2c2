#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "rng/philox.hpp"
#include "rng/splitmix64.hpp"

namespace qoslb {

/// Per-(seed, round, user) counter-based substreams for synchronous rounds
/// (docs/performance.md). Each user of each round owns a private Philox
/// stream reachable in O(1):
///
///   key(user) = derive_seed(derive_seed(master_seed, round), user)
///
/// Because a user's draws depend only on (seed, round, user) — never on which
/// shard, thread, or iteration set the user was visited through — dense
/// scans, active-set scans, and any thread count all produce bit-identical
/// realizations. Copy-cheap (a single 64-bit key). user_stream() and
/// user_streams() are the only code that can construct a PhiloxEngine, so
/// every stream is keyed this way.
class RoundRng {
 public:
  /// The batch keying kernels behind user_streams(), each valued by its
  /// lanes: the users one register keys.
  enum class Keying { kScalar = 1, kAvx2 = 4, kAvx512 = 8 };

  /// Users keyed per user_streams() call by for_each_stream(): 256 engines
  /// are about 10 KB of stack.
  static constexpr std::size_t kChunk = 256;

  RoundRng() = default;
  RoundRng(std::uint64_t master_seed, std::uint64_t round)
      : round_key_(derive_seed(master_seed, round)) {}

  /// User u's private engine for this round, positioned at index 0. The
  /// stream is exclusively the user's, so bounded rejection sampling
  /// (Lemire) is safe — draws never interleave with another user's.
  PhiloxEngine user_stream(std::uint64_t user) const {
    return PhiloxEngine(derive_seed(round_key_, user));
  }

  /// Writes user_stream(users[i]) to out[i] for every i. `kernel` kAvx2
  /// also computes each engine's first two outputs (the probe and the
  /// λ-coin of a one-probe decision), four users per step in AVX2 lanes;
  /// kAvx512 does the same in AVX-512 lanes, eight users per register, and
  /// derives the keys in lanes too. A kernel the CPU does not run
  /// (supported()) falls back to kScalar, which keys each engine as
  /// user_stream() does. All three give the same draws bit for bit.
  void user_streams(std::span<const std::uint32_t> users, PhiloxEngine* out,
                    Keying kernel = host_keying()) const;

  /// Calls body(users[i], engine) in order, the engine keyed as by
  /// user_stream(users[i]). Keys kChunk users at a time with user_streams()
  /// into a stack buffer: no heap allocation, no lock.
  template <typename Body>
  void for_each_stream(std::span<const std::uint32_t> users,
                       Body&& body) const {
    PhiloxEngine chunk[kChunk];
    while (!users.empty()) {
      const auto part = users.first(std::min(kChunk, users.size()));
      user_streams(part, chunk);
      for (std::size_t i = 0; i < part.size(); ++i) body(part[i], chunk[i]);
      users = users.subspan(part.size());
    }
  }

  /// Whether this CPU runs `kernel`: kScalar everywhere, kAvx2 on an x86-64
  /// host with AVX2, kAvx512 on one with AVX-512F, DQ and VL. Read from the
  /// CPU once per process.
  static bool supported(Keying kernel);

  /// The widest kernel this CPU runs: kAvx512, else kAvx2, else kScalar.
  static Keying host_keying();

  std::uint64_t round_key() const { return round_key_; }

 private:
  // The three kernels (round_rng.cpp).
  static void key_scalar(std::uint64_t round_key,
                         std::span<const std::uint32_t> users,
                         PhiloxEngine* out);
  static void key_avx2(std::uint64_t round_key,
                       std::span<const std::uint32_t> users, PhiloxEngine* out);
  static void key_avx512(std::uint64_t round_key,
                         std::span<const std::uint32_t> users,
                         PhiloxEngine* out);

  std::uint64_t round_key_ = 0;
};

}  // namespace qoslb
