// RoundRng's batch keying (docs/performance.md, "Keying in lanes"). The
// AVX2 kernel is compiled for AVX2 by a function attribute, not by a build
// flag, and runs only where the CPU reports AVX2, so one binary serves every
// x86-64 host. Both kernels derive each key with derive_seed(); the AVX2
// kernel also computes the same Philox4x32-10 blocks as Philox4x32::at() for
// counters 0 and 1, so no draw depends on which one ran.
#include "rng/round_rng.hpp"

#if defined(__x86_64__)
#include <immintrin.h>

// Compiles one function for AVX2 whatever the build's -m flags are.
#define QOSLB_TARGET_AVX2 __attribute__((target("avx2")))
#endif

namespace qoslb {
namespace {

bool cpu_has_avx2() {
#if defined(__x86_64__)
  __builtin_cpu_init();  // required when called before main
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

// Read once, at static initialization; a call from an earlier static
// initializer sees false and keys on the scalar path, which draws the same.
const bool kHostHasAvx2 = cpu_has_avx2();

}  // namespace

RoundRng::Keying RoundRng::host_keying() {
  return kHostHasAvx2 ? Keying::kAvx2 : Keying::kScalar;
}

void RoundRng::user_streams(std::span<const std::uint32_t> users,
                            PhiloxEngine* out, Keying kernel) const {
  if (kernel == Keying::kAvx2 && kHostHasAvx2) {
    key_avx2(round_key_, users, out);
  } else {
    key_scalar(round_key_, users, out);
  }
}

void RoundRng::key_scalar(std::uint64_t round_key,
                          std::span<const std::uint32_t> users,
                          PhiloxEngine* out) {
  for (std::size_t i = 0; i < users.size(); ++i)
    out[i] = PhiloxEngine(derive_seed(round_key, users[i]));
}

#if defined(__x86_64__)

namespace {

/// One Philox4x32 round on four blocks, one per 64-bit lane. Each lane keeps
/// its 32-bit word in the low half; the high half is don't-care, because
/// _mm256_mul_epu32 reads only low halves and the outputs are masked.
QOSLB_TARGET_AVX2 inline void philox_round(__m256i (&c)[4], __m256i k0,
                                           __m256i k1) {
  const __m256i m0 = _mm256_set1_epi64x(Philox4x32::kM0);
  const __m256i m1 = _mm256_set1_epi64x(Philox4x32::kM1);
  const __m256i p0 = _mm256_mul_epu32(c[0], m0);
  const __m256i p1 = _mm256_mul_epu32(c[2], m1);
  const __m256i hi0 = _mm256_srli_epi64(p0, 32);
  const __m256i hi1 = _mm256_srli_epi64(p1, 32);
  c[0] = _mm256_xor_si256(_mm256_xor_si256(hi1, c[1]), k0);
  c[1] = p1;  // lo1
  c[2] = _mm256_xor_si256(_mm256_xor_si256(hi0, c[3]), k1);
  c[3] = p0;  // lo0
}

/// The 64-bit output Philox4x32::at() takes from a block: word 1 above
/// word 0.
QOSLB_TARGET_AVX2 inline __m256i block_output(const __m256i (&c)[4]) {
  return _mm256_blend_epi32(c[0], _mm256_slli_epi64(c[1], 32), 0xAA);
}

}  // namespace

QOSLB_TARGET_AVX2 void RoundRng::key_avx2(std::uint64_t round_key,
                                         std::span<const std::uint32_t> users,
                                         PhiloxEngine* out) {
  const __m256i weyl0 =
      _mm256_set1_epi32(static_cast<int>(Philox4x32::kWeyl0));
  const __m256i weyl1 =
      _mm256_set1_epi32(static_cast<int>(Philox4x32::kWeyl1));
  std::size_t i = 0;
  for (; i + 4 <= users.size(); i += 4) {
    alignas(32) std::uint64_t keys[4];
    for (std::size_t j = 0; j < 4; ++j)
      keys[j] = derive_seed(round_key, users[i + j]);
    __m256i k0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(keys));
    __m256i k1 = _mm256_srli_epi64(k0, 32);
    // Counter 0 is {0, 0, 0, 0}, counter 1 is {1, 0, 0, 0}; both under the
    // lane's key.
    __m256i first[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                        _mm256_setzero_si256(), _mm256_setzero_si256()};
    __m256i second[4] = {_mm256_set1_epi64x(1), _mm256_setzero_si256(),
                         _mm256_setzero_si256(), _mm256_setzero_si256()};
    for (int round = 0; round < 10; ++round) {
      philox_round(first, k0, k1);
      philox_round(second, k0, k1);
      k0 = _mm256_add_epi32(k0, weyl0);
      k1 = _mm256_add_epi32(k1, weyl1);
    }
    alignas(32) std::uint64_t out0[4];
    alignas(32) std::uint64_t out1[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(out0), block_output(first));
    _mm256_store_si256(reinterpret_cast<__m256i*>(out1), block_output(second));
    for (std::size_t j = 0; j < 4; ++j)
      out[i + j] = PhiloxEngine(keys[j], out0[j], out1[j]);
  }
  key_scalar(round_key, users.subspan(i), out + i);
}

#else

// No AVX2 off x86-64: user_streams() never calls this kernel.
void RoundRng::key_avx2(std::uint64_t round_key,
                        std::span<const std::uint32_t> users,
                        PhiloxEngine* out) {
  key_scalar(round_key, users, out);
}

#endif

}  // namespace qoslb
