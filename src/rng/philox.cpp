#include "rng/philox.hpp"

namespace qoslb {
namespace {

inline std::uint32_t mulhi32(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b)) >> 32);
}

inline std::uint32_t mullo32(std::uint32_t a, std::uint32_t b) {
  return a * b;
}

}  // namespace

Philox4x32::counter_type Philox4x32::block(counter_type ctr, key_type key) {
  for (int round = 0; round < 10; ++round) {
    const std::uint32_t hi0 = mulhi32(kM0, ctr[0]);
    const std::uint32_t lo0 = mullo32(kM0, ctr[0]);
    const std::uint32_t hi1 = mulhi32(kM1, ctr[2]);
    const std::uint32_t lo1 = mullo32(kM1, ctr[2]);
    ctr = {hi1 ^ ctr[1] ^ key[0], lo1, hi0 ^ ctr[3] ^ key[1], lo0};
    key[0] += kWeyl0;
    key[1] += kWeyl1;
  }
  return ctr;
}

std::uint64_t Philox4x32::at(std::uint64_t key, std::uint64_t index) {
  const counter_type ctr = {
      static_cast<std::uint32_t>(index), static_cast<std::uint32_t>(index >> 32),
      0u, 0u};
  const key_type k = {static_cast<std::uint32_t>(key),
                      static_cast<std::uint32_t>(key >> 32)};
  const counter_type out = block(ctr, k);
  return (static_cast<std::uint64_t>(out[1]) << 32) | out[0];
}

}  // namespace qoslb
