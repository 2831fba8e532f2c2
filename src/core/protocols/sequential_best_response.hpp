#pragma once

#include <type_traits>

#include "core/protocol.hpp"

namespace qoslb {

/// P1 — sequential best-response baseline: one unsatisfied user per step
/// moves to its best satisfying deviation (highest post-move quality).
/// This is the classical centralized-scheduler dynamic the distributed
/// protocols are measured against (E9); a step costs a full O(m) probe scan.
/// One body for both load models (`SequentialBestResponse` and
/// `WeightedSequentialBestResponse`, named seq-br and w-seq-br); the member
/// definitions are instantiated for both in sequential_best_response.cpp.
template <typename Model>
class BasicSequentialBestResponse : public BasicProtocol<Model> {
 public:
  enum class Order {
    kRandom,      // a uniformly random unsatisfied mover each step
    kRoundRobin,  // cyclic scan over user ids
  };

  /// The deviation scan is threshold-gated (threshold 0 on every
  /// unreachable pair), so restricted instances need no sampling helper.
  static constexpr ProtocolTraits kTraits{.restricted = true};

  explicit BasicSequentialBestResponse(Order order = Order::kRandom)
      : BasicProtocol<Model>(kTraits), order_(order) {}

  std::string name() const override {
    const std::string kind = order_ == Order::kRandom ? "seq-br" : "seq-br-rr";
    return std::is_same_v<Model, Instance> ? kind : "w-" + kind;
  }

  void step(BasicState<Model>& state, Xoshiro256& rng,
            Counters& counters) override;

  void reset() override { cursor_ = 0; }

 private:
  Order order_;
  UserId cursor_ = 0;
};

using SequentialBestResponse = BasicSequentialBestResponse<Instance>;

}  // namespace qoslb
