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

  /// The round multipliers and the Weyl key increments.
  static constexpr std::uint32_t kM0 = 0xD2511F53u;
  static constexpr std::uint32_t kM1 = 0xCD9E8D57u;
  static constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;
  static constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;

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
/// The keying constructors are private: the only way to obtain an engine is
/// RoundRng::user_stream() or RoundRng::user_streams(), which key it by
/// (seed, round, user). A raw-keyed stream (`seed + round`, `seed ^ u`) would
/// collide with another context's substream, so it does not compile
/// (tests/rng_engines_test.cpp asserts this). Copies stay public: a stream is
/// a value.
///
/// An engine keyed by user_streams()' AVX2 kernel carries its first two
/// outputs (counters 0 and 1), computed alongside other users' in SIMD
/// lanes; from index 2 on, and for any other engine from index 0, each
/// output is one Philox4x32::at() block. Either way output i is
/// Philox4x32::at(key(), i).
class PhiloxEngine {
 public:
  using result_type = std::uint64_t;

  std::uint64_t operator()() {
    const std::uint64_t index = index_++;
    return index < head_size_ ? head_[index] : Philox4x32::at(key_, index);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  std::uint64_t key() const { return key_; }
  std::uint64_t position() const { return index_; }
  void seek(std::uint64_t index) { index_ = index; }

 private:
  friend class RoundRng;

  /// Uninitialized: the stack slots RoundRng::for_each_stream() keys into.
  PhiloxEngine() = default;
  explicit PhiloxEngine(std::uint64_t key)
      : key_(key), index_(0), head_{0, 0}, head_size_(0) {}
  PhiloxEngine(std::uint64_t key, std::uint64_t first, std::uint64_t second)
      : key_(key), index_(0), head_{first, second}, head_size_(2) {}

  std::uint64_t key_;
  std::uint64_t index_;
  std::uint64_t head_[2];  // outputs 0 and 1, valid below head_size_
  std::uint64_t head_size_;
};

}  // namespace qoslb
