#pragma once

#include <array>
#include <cstdint>

namespace qoslb {

/// Philox4x32-10 counter-based generator (Salmon et al., SC'11).
/// Counter-based RNGs give O(1) random access into the stream: agent `k` in
/// replication `r` can draw value `i` without any sequential state, which
/// makes massively parallel simulations bit-reproducible regardless of the
/// execution order of agents across threads.
class Philox4x32 {
 public:
  using counter_type = std::array<std::uint32_t, 4>;
  using key_type = std::array<std::uint32_t, 2>;

  /// Encrypts `counter` under `key` with 10 rounds.
  static counter_type block(counter_type counter, key_type key);

  /// Convenience: 64-bit output for (key, index); consumes the block's first
  /// two lanes.
  static std::uint64_t at(std::uint64_t key, std::uint64_t index);
};

class RoundRng;

/// Sequential engine facade over Philox: UniformRandomBitGenerator-compliant,
/// with the (stream, position) pair explicit so streams never overlap.
///
/// The keying constructor is private: the only way to obtain an engine is
/// RoundRng::user_stream(), which keys it by (seed, round, user). A raw-keyed
/// stream (`seed + round`, `seed ^ u`) would collide with another context's
/// substream, so it does not compile (tests/rng_engines_test.cpp asserts
/// this). Copies stay public: a stream is a value.
class PhiloxEngine {
 public:
  using result_type = std::uint64_t;

  std::uint64_t operator()() { return Philox4x32::at(key_, index_++); }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  std::uint64_t key() const { return key_; }
  std::uint64_t position() const { return index_; }
  void seek(std::uint64_t index) { index_ = index; }

 private:
  friend class RoundRng;

  explicit PhiloxEngine(std::uint64_t key) : key_(key), index_(0) {}

  std::uint64_t key_;
  std::uint64_t index_;
};

}  // namespace qoslb
