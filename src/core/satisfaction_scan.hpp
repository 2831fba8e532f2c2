#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "core/types.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace qoslb {

/// Branchless structure-of-arrays satisfaction scans (docs/performance.md).
///
/// The SoA State keeps three contiguous arrays — `assignment[u]`, `load[r]`,
/// and `threshold_here[u]` (user u's threshold on its *current* resource) —
/// so the satisfaction predicate collapses to one comparison over
/// sequentially-streamed memory:
///
///     satisfied(u)  <=>  load[assignment[u]] <= threshold_here[u]
///
/// The scalar loops below are written branch-free (the predicate result is
/// consumed arithmetically) so compilers can unroll and software-pipeline
/// them; the explicit AVX2 path exists because the load[] access is a
/// gather, which no production compiler auto-vectorizes from scalar source.
/// Both paths are bit-equivalent by construction: they evaluate the same
/// integer predicate per user and emit survivors in ascending input order,
/// which is what keeps the round realization identical to the historical
/// branchy scan (tests/core_soa_test.cpp pins the equivalence).

/// Number of satisfied users among users[0..count): one gather + compare per
/// user against `loads` (the round-boundary snapshot in engine use).
inline std::size_t count_satisfied_scan(const ResourceId* assignment,
                                        const int* threshold_here,
                                        const int* loads, const UserId* users,
                                        std::size_t count) {
  std::size_t unsatisfied = 0;
  std::size_t i = 0;
#if defined(__AVX2__)
  for (; i + 8 <= count; i += 8) {
    const __m256i idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(users + i));
    const __m256i res = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(assignment), idx, 4);
    const __m256i load = _mm256_i32gather_epi32(loads, res, 4);
    const __m256i thr = _mm256_i32gather_epi32(threshold_here, idx, 4);
    const __m256i over = _mm256_cmpgt_epi32(load, thr);
    unsatisfied += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(_mm256_movemask_ps(
            _mm256_castsi256_ps(over)))));
  }
#endif
  for (; i < count; ++i) {
    const UserId u = users[i];
    unsatisfied +=
        static_cast<std::size_t>(loads[assignment[u]] > threshold_here[u]);
  }
  return count - unsatisfied;
}

/// Dense variant over users [0, n): no index gather for the per-user arrays.
/// `Load` is the state's load type; the AVX2 lanes are 32-bit, so only the
/// unit model's `int` loads take them (weight loads run the scalar loop).
template <typename Load>
std::size_t count_satisfied_dense(const ResourceId* assignment,
                                  const Load* threshold_here,
                                  const Load* loads, std::size_t n) {
  std::size_t unsatisfied = 0;
  std::size_t i = 0;
#if defined(__AVX2__)
  if constexpr (std::is_same_v<Load, int>) {
    for (; i + 8 <= n; i += 8) {
      const __m256i res = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(assignment + i));
      const __m256i load = _mm256_i32gather_epi32(loads, res, 4);
      const __m256i thr = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(threshold_here + i));
      const __m256i over = _mm256_cmpgt_epi32(load, thr);
      unsatisfied += static_cast<std::size_t>(
          __builtin_popcount(static_cast<unsigned>(_mm256_movemask_ps(
              _mm256_castsi256_ps(over)))));
    }
  }
#endif
  for (; i < n; ++i)
    unsatisfied +=
        static_cast<std::size_t>(loads[assignment[i]] > threshold_here[i]);
  return n - unsatisfied;
}

/// Compacts the unsatisfied members of users[0..count) — in ascending input
/// order — into `out` (capacity >= count) and returns how many were written.
/// This is the decision-phase prefilter: a protocol whose satisfied users
/// neither act nor draw runs its probe loop only over the survivors, so the
/// O(n) part of a round is this scan instead of n iterations of the probe
/// machinery. Preserving input order preserves the request append order,
/// which is what keeps commit order — and hence the realization — identical.
inline std::size_t collect_unsatisfied(const ResourceId* assignment,
                                       const int* threshold_here,
                                       const int* loads, const UserId* users,
                                       std::size_t count, UserId* out) {
  std::size_t written = 0;
  std::size_t i = 0;
#if defined(__AVX2__)
  for (; i + 8 <= count; i += 8) {
    const __m256i idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(users + i));
    const __m256i res = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(assignment), idx, 4);
    const __m256i load = _mm256_i32gather_epi32(loads, res, 4);
    const __m256i thr = _mm256_i32gather_epi32(threshold_here, idx, 4);
    const __m256i over = _mm256_cmpgt_epi32(load, thr);
    auto mask = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(over)));
    while (mask != 0) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(mask));
      out[written++] = users[i + lane];
      mask &= mask - 1;
    }
  }
#endif
  for (; i < count; ++i) {
    const UserId u = users[i];
    out[written] = u;
    written +=
        static_cast<std::size_t>(loads[assignment[u]] > threshold_here[u]);
  }
  return written;
}

}  // namespace qoslb
