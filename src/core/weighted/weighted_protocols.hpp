#pragma once

#include <string>

#include "core/protocol.hpp"
#include "core/protocols/sequential_best_response.hpp"
#include "core/weighted/weighted_state.hpp"
#include "rng/xoshiro256.hpp"
#include "core/accounting.hpp"

namespace qoslb {

/// The weighted model's protocol base: BasicProtocol (core/protocol.hpp)
/// over weight loads, driven by the same Engine::run round loop as the unit
/// model's protocols. The weighted protocols step on the caller's RNG like
/// seq-br, so they take neither churn plans nor checkpoints. Only their
/// decisions are their own — the satisfaction checks, the best-response
/// scan and the admission gate are the unit model's, instantiated over
/// weight loads (core/satisfaction.hpp, core/protocols/common.hpp).
using WeightedProtocol = BasicProtocol<WeightedInstance>;

/// Optimistic λ-damped sampling (weighted P2).
class WeightedUniformSampling : public WeightedProtocol {
 public:
  explicit WeightedUniformSampling(double migrate_prob = 1.0);
  std::string name() const override;
  void step(WeightedState& state, Xoshiro256& rng, Counters& counters) override;

 private:
  double migrate_prob_;
};

/// Resource-gated admission (weighted P4): the unit model's
/// apply_with_admission over weight loads — each resource admits the longest
/// threshold-ordered prefix whose *weight* sum keeps the admitted and the
/// satisfied residents under their thresholds.
class WeightedAdmissionControl : public WeightedProtocol {
 public:
  std::string name() const override { return "w-admission"; }
  void step(WeightedState& state, Xoshiro256& rng, Counters& counters) override;
};

/// One random unsatisfied user per step moves to its best satisfying
/// resource (weighted P1 baseline): seq-br's body over weight loads.
using WeightedSequentialBestResponse =
    BasicSequentialBestResponse<WeightedInstance>;

}  // namespace qoslb
