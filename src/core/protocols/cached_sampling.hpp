#pragma once

#include <cstdint>
#include <vector>

#include "core/protocol.hpp"

namespace qoslb {

/// Stale-information ablation (E17): identical to SamplingProtocol's
/// `uniform` kind except that users consult a shared load cache (think:
/// piggybacked gossip or a periodically refreshed bulletin board) and only
/// pay for a fresh PROBE
/// when the cached entry is older than `ttl` rounds. With ttl = 0 an entry
/// is refreshed at most once per round and shared by every user that samples
/// the resource in that round (a round bulletin board) — already cheaper in
/// messages than per-user probing. Larger ttl trades messages for
/// staleness: decisions made on outdated "free" signals herd onto resources
/// that already filled up, so convergence slows and can stall — the
/// freshness/cost trade-off quantified by bench/e17_probe_cache.
class CachedSampling : public Protocol {
 public:
  /// step() only, and not restricted: the TTL cache samples raw resource
  /// ids and would need a per-user cache walk.
  static constexpr ProtocolTraits kTraits{};

  CachedSampling(double migrate_prob, std::uint32_t ttl_rounds);

  std::string name() const override;

  void step(State& state, Xoshiro256& rng, Counters& counters) override;

  void reset() override {
    cached_load_.clear();
    cached_at_.clear();
    round_ = 0;
  }

  std::uint32_t ttl() const { return ttl_; }

 private:
  double migrate_prob_;
  std::uint32_t ttl_;
  std::uint64_t round_ = 0;
  std::vector<int> cached_load_;
  std::vector<std::uint64_t> cached_at_;  // round of the last refresh, per resource
};

}  // namespace qoslb
