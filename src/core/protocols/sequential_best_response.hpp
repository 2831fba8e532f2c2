#pragma once

#include "core/protocol.hpp"

namespace qoslb {

/// P1 — sequential best-response baseline: one unsatisfied user per step
/// moves to its best satisfying deviation (highest post-move quality).
/// This is the classical centralized-scheduler dynamic the distributed
/// protocols are measured against (E9); a step costs a full O(m) probe scan.
class SequentialBestResponse : public Protocol {
 public:
  enum class Order {
    kRandom,      // a uniformly random unsatisfied mover each step
    kRoundRobin,  // cyclic scan over user ids
  };

  /// The deviation scan is threshold-gated (threshold 0 on every
  /// unreachable pair), so restricted instances need no sampling helper.
  static constexpr ProtocolTraits kTraits{.restricted = true};

  explicit SequentialBestResponse(Order order = Order::kRandom)
      : Protocol(kTraits), order_(order) {}

  std::string name() const override {
    return order_ == Order::kRandom ? "seq-br" : "seq-br-rr";
  }

  void step(State& state, Xoshiro256& rng, Counters& counters) override;

  void reset() override { cursor_ = 0; }

 private:
  Order order_;
  UserId cursor_ = 0;
};

}  // namespace qoslb
