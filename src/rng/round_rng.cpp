// RoundRng's batch keying (docs/performance.md, "Keying in lanes"). The
// AVX2 and AVX-512 kernels are compiled for their instruction sets by
// function attributes, not by build flags, and run only where the CPU
// reports them, so one binary serves every x86-64 host. The AVX2 kernel
// derives each key with derive_seed(), the AVX-512 kernel runs the same
// 64-bit multiplies, shifts and XORs in lanes, and both compute the same
// Philox4x32-10 blocks as Philox4x32::at() for counters 0 and 1, so no draw
// depends on which kernel ran.
#include "rng/round_rng.hpp"

#if defined(__x86_64__)
#include <immintrin.h>

// Compile one function for AVX2 or AVX-512 whatever the build's -m flags
// are.
#define QOSLB_TARGET_AVX2 __attribute__((target("avx2")))
#define QOSLB_TARGET_AVX512 \
  __attribute__((target("avx512f,avx512dq,avx512vl")))
#endif

namespace qoslb {
namespace {

bool cpu_runs(RoundRng::Keying kernel) {
#if defined(__x86_64__)
  __builtin_cpu_init();  // required when called before main
  switch (kernel) {
    case RoundRng::Keying::kScalar:
      return true;
    case RoundRng::Keying::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case RoundRng::Keying::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0;
  }
  return false;
#else
  return kernel == RoundRng::Keying::kScalar;
#endif
}

// Read once, at static initialization; a call from an earlier static
// initializer sees false and keys on the scalar path, which draws the same.
const bool kHostHasAvx2 = cpu_runs(RoundRng::Keying::kAvx2);
const bool kHostHasAvx512 = cpu_runs(RoundRng::Keying::kAvx512);

}  // namespace

bool RoundRng::supported(Keying kernel) {
  switch (kernel) {
    case Keying::kScalar:
      return true;
    case Keying::kAvx2:
      return kHostHasAvx2;
    case Keying::kAvx512:
      return kHostHasAvx512;
  }
  return false;
}

RoundRng::Keying RoundRng::host_keying() {
  return kHostHasAvx512 ? Keying::kAvx512
         : kHostHasAvx2 ? Keying::kAvx2
                        : Keying::kScalar;
}

void RoundRng::user_streams(std::span<const std::uint32_t> users,
                            PhiloxEngine* out, Keying kernel) const {
  if (kernel == Keying::kAvx512 && kHostHasAvx512) {
    key_avx512(round_key_, users, out);
  } else if (kernel == Keying::kAvx2 && kHostHasAvx2) {
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

/// Eight 64-bit lanes, as a GCC vector: inside a QOSLB_TARGET_AVX512
/// function its arithmetic compiles to AVX-512 instructions, and a scalar
/// operand applies to every lane. The kernel calls intrinsics only where
/// the vector extension has no spelling, each in its zero-masking form
/// with every lane selected: that is the plain instruction, and unlike the
/// unmasked intrinsic it reads no undefined vector, which GCC 12 reports
/// as maybe-uninitialized.
using Lanes = std::uint64_t __attribute__((vector_size(64)));

/// ids[0 .. count) zero-extended into lanes 0 .. count-1, and 0 in the
/// other lanes. The masked load reads only those `count` ids (count <= 8).
QOSLB_TARGET_AVX512 inline Lanes load_ids(const std::uint32_t* ids,
                                          std::size_t count) {
  const auto mask = static_cast<__mmask8>((1u << count) - 1);
  return reinterpret_cast<Lanes>(_mm512_maskz_cvtepu32_epi64(
      0xFF, _mm256_maskz_loadu_epi32(mask, ids)));
}

/// The 32x32->64-bit product of each lane's low word with `m` (vpmuludq).
QOSLB_TARGET_AVX512 inline Lanes mul_lo(Lanes a, std::uint32_t m) {
  return reinterpret_cast<Lanes>(_mm512_maskz_mul_epu32(
      0xFF, reinterpret_cast<__m512i>(a), _mm512_set1_epi64(m)));
}

/// philox_round() on eight blocks. Each new word XORs three terms, which
/// compiles to one vpternlogq.
QOSLB_TARGET_AVX512 inline void philox_round(Lanes (&c)[4], Lanes k0,
                                             Lanes k1) {
  const Lanes p0 = mul_lo(c[0], Philox4x32::kM0);
  const Lanes p1 = mul_lo(c[2], Philox4x32::kM1);
  c[0] = (p1 >> 32) ^ c[1] ^ k0;
  c[1] = p1;  // lo1
  c[2] = (p0 >> 32) ^ c[3] ^ k1;
  c[3] = p0;  // lo0
}

/// derive_seed(round_key, id) in every lane, written as derive_seed()
/// and mix64() are; each 64-bit multiply is one vpmullq.
QOSLB_TARGET_AVX512 inline Lanes derive_seeds(std::uint64_t round_key,
                                              Lanes ids) {
  Lanes x = round_key ^ (0x9E3779B97F4A7C15ULL * (ids + 1));
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Counters 0 and 1 of eight users' streams, one user per lane. As in the
/// AVX2 kernel, each lane keeps its 32-bit word in the low half and the
/// high half is don't-care. The key schedule adds in 64-bit lanes, whose
/// low word wraps as the scalar 32-bit add does.
struct EightHeads {
  Lanes key;
  Lanes k0, k1;     // the key schedule
  Lanes first[4];   // counter 0's block
  Lanes second[4];  // counter 1's block

  /// Keys the lanes' ids and runs rounds 1 and 2. Round 1 multiplies zero
  /// words and word 0 of counter 1, which is 1, so it leaves counter 0 at
  /// {key word 0, 0, key word 1, 0} and counter 1 the same but for M0 in
  /// word 3. Round 2 multiplies the same words in both blocks and leaves
  /// them apart in word 2 only, by M0.
  QOSLB_TARGET_AVX512 EightHeads(std::uint64_t round_key, Lanes ids)
      : key(derive_seeds(round_key, ids)),
        k0(key + Philox4x32::kWeyl0),
        k1((key >> 32) + Philox4x32::kWeyl1),
        first{key, Lanes{}, key >> 32, Lanes{}} {
    philox_round(first, k0, k1);
    second[0] = first[0];
    second[1] = first[1];
    second[2] = first[2] ^ Philox4x32::kM0;
    second[3] = first[3];
    next_key();
  }

  QOSLB_TARGET_AVX512 void next_key() {
    k0 += Philox4x32::kWeyl0;
    k1 += Philox4x32::kWeyl1;
  }

  QOSLB_TARGET_AVX512 void round() {
    philox_round(first, k0, k1);
    philox_round(second, k0, k1);
    next_key();
  }

  /// The 64-bit outputs Philox4x32::at() takes from each block: word 1
  /// above word 0.
  QOSLB_TARGET_AVX512 static Lanes output(const Lanes (&c)[4]) {
    return (c[1] << 32) | (c[0] & 0xFFFFFFFFu);
  }
};

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

// Sixteen users per step, eight per register, so that four independent
// multiply chains are in flight instead of one register's two. The masked
// loads read only the ids of the step's users: the last 1-15 users of a
// list ride in lanes too, and a lane past the list writes no engine.
QOSLB_TARGET_AVX512 void RoundRng::key_avx512(
    std::uint64_t round_key, std::span<const std::uint32_t> users,
    PhiloxEngine* out) {
  for (std::size_t i = 0; i < users.size(); i += 16) {
    const std::size_t count = std::min<std::size_t>(16, users.size() - i);
    const std::size_t low = std::min<std::size_t>(8, count);
    EightHeads a(round_key, load_ids(users.data() + i, low));
    EightHeads b(round_key, load_ids(users.data() + i + low, count - low));
    for (int round = 2; round < 10; ++round) {
      a.round();
      b.round();
    }
    const Lanes keys[2] = {a.key, b.key};
    const Lanes out0[2] = {EightHeads::output(a.first),
                           EightHeads::output(b.first)};
    const Lanes out1[2] = {EightHeads::output(a.second),
                           EightHeads::output(b.second)};
    for (std::size_t j = 0; j < count; ++j)
      out[i + j] = PhiloxEngine(keys[j / 8][j % 8], out0[j / 8][j % 8],
                                out1[j / 8][j % 8]);
  }
}

#else

// No AVX2 or AVX-512 off x86-64: user_streams() never calls these kernels.
void RoundRng::key_avx2(std::uint64_t round_key,
                        std::span<const std::uint32_t> users,
                        PhiloxEngine* out) {
  key_scalar(round_key, users, out);
}

void RoundRng::key_avx512(std::uint64_t round_key,
                          std::span<const std::uint32_t> users,
                          PhiloxEngine* out) {
  key_scalar(round_key, users, out);
}

#endif

}  // namespace qoslb
