// distributions.hpp is header-only (templates over the generator type); this
// translation unit exists to give the templates one explicit compile check
// against both engines so template errors surface at library build time.
#include "rng/distributions.hpp"

#include <cmath>

#include "rng/philox.hpp"
#include "rng/round_rng.hpp"
#include "rng/xoshiro256.hpp"

namespace qoslb {
namespace {

template <typename Rng>
double touch_all(Rng& rng) {
  double acc = 0;
  acc += static_cast<double>(uniform_u64_below(rng, 10));
  acc += static_cast<double>(uniform_int(rng, -3, 3));
  acc += uniform_real(rng);
  acc += bernoulli(rng, 0.5) ? 1 : 0;
  acc += static_cast<double>(geometric(rng, 0.5));
  acc += exponential(rng, 1.0);
  acc += static_cast<double>(poisson(rng, 2.0));
  const double w[] = {1.0, 2.0};
  acc += static_cast<double>(discrete(rng, std::span<const double>(w, 2)));
  return acc;
}

}  // namespace

// Nothing calls this: it exists only so that every distribution template is
// instantiated against both engines when the library builds.
double rng_instantiation_smoke() {
  Xoshiro256 a(1);
  PhiloxEngine b = RoundRng(1, 0).user_stream(0);
  return touch_all(a) + touch_all(b);
}

}  // namespace qoslb
