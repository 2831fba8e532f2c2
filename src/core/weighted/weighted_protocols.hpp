#pragma once

#include <string>

#include "core/engine.hpp"
#include "core/satisfaction.hpp"
#include "core/weighted/weighted_state.hpp"
#include "rng/xoshiro256.hpp"
#include "core/accounting.hpp"

namespace qoslb {

/// Weighted counterparts of the round protocols: one step() per round on a
/// WeightedState. Only their decisions are their own — the satisfaction
/// checks, the best-response scan and the admission gate are the unit
/// model's, instantiated over weight loads (core/satisfaction.hpp,
/// core/protocols/common.hpp).
class WeightedProtocol {
 public:
  virtual ~WeightedProtocol() = default;
  virtual std::string name() const = 0;
  virtual void step(WeightedState& state, Xoshiro256& rng, Counters& counters) = 0;
  virtual bool is_stable(const WeightedState& state) const {
    return is_satisfaction_equilibrium(state);
  }
  virtual void reset() {}
};

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
  WeightedAdmissionControl() = default;
  std::string name() const override { return "w-admission"; }
  void step(WeightedState& state, Xoshiro256& rng, Counters& counters) override;
};

/// One random unsatisfied user per step moves to its best satisfying
/// resource (weighted P1 baseline).
class WeightedSequentialBestResponse : public WeightedProtocol {
 public:
  WeightedSequentialBestResponse() = default;
  std::string name() const override { return "w-seq-br"; }
  void step(WeightedState& state, Xoshiro256& rng, Counters& counters) override;
};

}  // namespace qoslb
