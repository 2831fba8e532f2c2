#pragma once

#include <cstdint>

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
/// realizations. Copy-cheap (a single 64-bit key). user_stream() is the only
/// code that can construct a PhiloxEngine, so every stream is keyed this way.
class RoundRng {
 public:
  RoundRng() = default;
  RoundRng(std::uint64_t master_seed, std::uint64_t round)
      : round_key_(derive_seed(master_seed, round)) {}

  /// User u's private engine for this round, positioned at index 0. The
  /// stream is exclusively the user's, so bounded rejection sampling
  /// (Lemire) is safe — draws never interleave with another user's.
  PhiloxEngine user_stream(std::uint64_t user) const {
    return PhiloxEngine(derive_seed(round_key_, user));
  }

  std::uint64_t round_key() const { return round_key_; }

 private:
  std::uint64_t round_key_ = 0;
};

}  // namespace qoslb
