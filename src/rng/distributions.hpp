#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace qoslb {

/// Distribution helpers over any UniformRandomBitGenerator with 64-bit output.
/// Implemented by hand (Lemire bounded integers, inversion methods) so that
/// results are identical across standard libraries and platforms — std::
/// distributions are not reproducible across implementations.

/// Uniform integer in [0, bound) via Lemire's multiply-shift rejection method.
template <typename Rng>
std::uint64_t uniform_u64_below(Rng& rng, std::uint64_t bound);

/// Uniform integer in [lo, hi] inclusive.
template <typename Rng>
std::int64_t uniform_int(Rng& rng, std::int64_t lo, std::int64_t hi);

/// Uniform double in [0, 1) with 53 bits of precision.
template <typename Rng>
double uniform_real(Rng& rng);

/// Uniform double in [lo, hi).
template <typename Rng>
double uniform_real(Rng& rng, double lo, double hi);

/// Bernoulli trial with success probability p (clamped to [0,1]).
template <typename Rng>
bool bernoulli(Rng& rng, double p);

/// Geometric: number of failures before the first success, p in (0,1].
template <typename Rng>
std::uint64_t geometric(Rng& rng, double p);

/// Exponential with rate lambda > 0.
template <typename Rng>
double exponential(Rng& rng, double lambda);

/// Poisson via inversion (suitable for small/moderate mean).
template <typename Rng>
std::uint64_t poisson(Rng& rng, double mean);

/// Samples an index proportional to non-negative weights (linear scan; the
/// callers' weight vectors are small). Throws if all weights are zero.
template <typename Rng>
std::size_t discrete(Rng& rng, std::span<const double> weights);

/// In-place Fisher–Yates shuffle.
template <typename Rng, typename T>
void shuffle(Rng& rng, std::vector<T>& items);

/// Replaces `out` with min(k, n) distinct indices from [0, n) (Floyd's
/// algorithm), ascending order not guaranteed. A caller that samples
/// repeatedly reuses one `out` and allocates once.
template <typename Rng>
void sample_without_replacement(Rng& rng, std::size_t n, std::size_t k,
                                std::vector<std::size_t>& out);

// ---- implementation ----

template <typename Rng>
std::uint64_t uniform_u64_below(Rng& rng, std::uint64_t bound) {
  // Lemire 2019, "Fast Random Integer Generation in an Interval".
  if (bound == 0) return 0;
  std::uint64_t x = rng();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = rng();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

template <typename Rng>
std::int64_t uniform_int(Rng& rng, std::int64_t lo, std::int64_t hi) {
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_u64_below(rng, span));
}

template <typename Rng>
double uniform_real(Rng& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

template <typename Rng>
double uniform_real(Rng& rng, double lo, double hi) {
  return lo + (hi - lo) * uniform_real(rng);
}

template <typename Rng>
bool bernoulli(Rng& rng, double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform_real(rng) < p;
}

template <typename Rng>
std::uint64_t geometric(Rng& rng, double p) {
  std::uint64_t failures = 0;
  while (!bernoulli(rng, p)) {
    ++failures;
    if (failures > (1ULL << 32)) break;  // guard against p ~ 0
  }
  return failures;
}

template <typename Rng>
double exponential(Rng& rng, double lambda) {
  // -log(1-U)/lambda; 1-U in (0,1] so the log argument never hits zero.
  double u = uniform_real(rng);
  return -std::log(1.0 - u) / lambda;
}

template <typename Rng>
std::uint64_t poisson(Rng& rng, double mean) {
  // Knuth inversion: product of uniforms until below exp(-mean).
  const double limit = std::exp(-mean);
  double product = 1.0;
  std::uint64_t count = 0;
  while (true) {
    product *= uniform_real(rng);
    if (product <= limit) return count;
    ++count;
  }
}

template <typename Rng>
std::size_t discrete(Rng& rng, std::span<const double> weights) {
  double total = 0.0;
  for (const double w : weights) total += w;
  if (total <= 0.0) throw std::invalid_argument("discrete(): all weights zero");
  double point = uniform_real(rng) * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    point -= weights[i];
    if (point < 0.0) return i;
  }
  return weights.size() - 1;  // numeric fallback
}

template <typename Rng, typename T>
void shuffle(Rng& rng, std::vector<T>& items) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const std::size_t j = uniform_u64_below(rng, i);
    using std::swap;
    swap(items[i - 1], items[j]);
  }
}

template <typename Rng>
void sample_without_replacement(Rng& rng, std::size_t n, std::size_t k,
                                std::vector<std::size_t>& out) {
  // Floyd's algorithm: k iterations, O(k) extra space.
  if (k > n) k = n;
  out.clear();
  out.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    const std::size_t t = uniform_u64_below(rng, j + 1);
    bool present = false;
    for (const std::size_t v : out)
      if (v == t) { present = true; break; }
    out.push_back(present ? j : t);
  }
}

}  // namespace qoslb
