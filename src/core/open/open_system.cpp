#include "core/open/open_system.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "rng/distributions.hpp"
#include "util/check.hpp"

namespace qoslb {
namespace {

/// Live user record in the open system. Slots are recycled via a free list
/// so ids stay dense across arrivals/departures.
struct LiveUser {
  int threshold = 0;       // in occupancy units on the identical resources
  std::uint32_t resource = 0;
  std::uint64_t arrived_round = 0;
  bool ever_satisfied = false;
  bool alive = false;
};

class OpenSystem {
 public:
  explicit OpenSystem(const OpenSystemConfig& config)
      : config_(config), rng_(config.seed), loads_(config.num_resources, 0) {
    QOSLB_REQUIRE(config.num_resources >= 2, "need at least two resources");
    QOSLB_REQUIRE(config.capacity > 0, "capacity must be positive");
    QOSLB_REQUIRE(config.arrival_rate >= 0, "arrival rate must be non-negative");
    QOSLB_REQUIRE(config.mean_lifetime >= 1, "mean lifetime must be >= 1 round");
    QOSLB_REQUIRE(config.q_lo > 0 && config.q_hi >= config.q_lo,
                  "bad requirement band");
    QOSLB_REQUIRE(config.warmup_rounds < config.rounds,
                  "warmup must end before the run does");
  }

  OpenSystemMetrics run() {
    for (std::uint64_t round = 0; round < config_.rounds; ++round) {
      depart(round);
      arrive(round);
      protocol_round();
      // Satisfaction marking runs every round (delays are measured from the
      // true arrival); population metrics accumulate only after warmup.
      record(round, /*accumulate=*/round >= config_.warmup_rounds);
    }
    finalize();
    return metrics_;
  }

 private:
  void depart(std::uint64_t round) {
    (void)round;
    const double p = 1.0 / config_.mean_lifetime;
    for (std::size_t i = 0; i < users_.size(); ++i) {
      if (!users_[i].alive || !bernoulli(rng_, p)) continue;
      if (!users_[i].ever_satisfied) ++metrics_.never_satisfied;
      --loads_[users_[i].resource];
      users_[i].alive = false;
      free_slots_.push_back(i);
      ++metrics_.departures;
    }
  }

  void arrive(std::uint64_t round) {
    const std::uint64_t count = poisson(rng_, config_.arrival_rate);
    for (std::uint64_t i = 0; i < count; ++i) {
      LiveUser user;
      const double q = uniform_real(rng_, config_.q_lo, config_.q_hi);
      user.threshold = static_cast<int>(
          std::floor(config_.capacity / q + 1e-9));
      user.resource = static_cast<std::uint32_t>(
          uniform_u64_below(rng_, config_.num_resources));
      user.arrived_round = round;
      user.alive = true;
      ++loads_[user.resource];
      if (free_slots_.empty()) {
        users_.push_back(user);
      } else {
        users_[free_slots_.back()] = user;
        free_slots_.pop_back();
      }
      ++metrics_.arrivals;
    }
  }

  /// One admission-gated round, mirroring the `admission` kind of
  /// SamplingProtocol on the live set.
  void protocol_round() {
    // Satisfied-resident minimum thresholds (the admission gate).
    std::vector<int> resident_min(config_.num_resources,
                                  std::numeric_limits<int>::max());
    for (const LiveUser& user : users_) {
      if (!user.alive) continue;
      if (user.threshold >= loads_[user.resource])
        resident_min[user.resource] =
            std::min(resident_min[user.resource], user.threshold);
    }

    // Decision phase against the round-start loads.
    const std::vector<int> snapshot = loads_;
    std::vector<std::vector<std::size_t>> requests(config_.num_resources);
    for (std::size_t i = 0; i < users_.size(); ++i) {
      const LiveUser& user = users_[i];
      if (!user.alive || snapshot[user.resource] <= user.threshold) continue;
      const auto r = static_cast<std::uint32_t>(
          uniform_u64_below(rng_, config_.num_resources));
      ++metrics_.probes;
      if (r == user.resource || snapshot[r] + 1 > user.threshold) continue;
      requests[r].push_back(i);
    }

    // Grant phase: longest threshold-descending prefix that fits.
    for (std::uint32_t r = 0; r < config_.num_resources; ++r) {
      auto& requesters = requests[r];
      if (requesters.empty()) continue;
      std::sort(requesters.begin(), requesters.end(),
                [&](std::size_t a, std::size_t b) {
                  if (users_[a].threshold != users_[b].threshold)
                    return users_[a].threshold > users_[b].threshold;
                  return a < b;
                });
      const int base_load = loads_[r];
      std::size_t admitted = 0;
      while (admitted < requesters.size()) {
        const int post_load = base_load + static_cast<int>(admitted) + 1;
        const int kth = users_[requesters[admitted]].threshold;
        if (post_load > resident_min[r] || post_load > kth) break;
        ++admitted;
      }
      for (std::size_t i = 0; i < admitted; ++i) {
        LiveUser& user = users_[requesters[i]];
        --loads_[user.resource];
        user.resource = r;
        ++loads_[r];
        ++metrics_.migrations;
      }
    }
  }

  void record(std::uint64_t round, bool accumulate) {
    std::uint64_t population = 0;
    std::uint64_t unsatisfied = 0;
    for (std::size_t i = 0; i < users_.size(); ++i) {
      LiveUser& user = users_[i];
      if (!user.alive) continue;
      ++population;
      if (loads_[user.resource] <= user.threshold) {
        if (!user.ever_satisfied) {
          user.ever_satisfied = true;
          satisfaction_delay_total_ +=
              static_cast<double>(round - user.arrived_round);
          ++satisfaction_delay_count_;
        }
      } else {
        ++unsatisfied;
      }
    }
    if (!accumulate) return;
    population_total_ += population;
    unsatisfied_total_ += unsatisfied;
    ++recorded_rounds_;
  }

  void finalize() {
    if (recorded_rounds_ > 0) {
      metrics_.mean_population = static_cast<double>(population_total_) /
                                 static_cast<double>(recorded_rounds_);
      metrics_.mean_unsatisfied = static_cast<double>(unsatisfied_total_) /
                                  static_cast<double>(recorded_rounds_);
    }
    metrics_.violation_fraction =
        population_total_ == 0
            ? 0.0
            : static_cast<double>(unsatisfied_total_) /
                  static_cast<double>(population_total_);
    metrics_.mean_rounds_to_satisfaction =
        satisfaction_delay_count_ == 0
            ? 0.0
            : satisfaction_delay_total_ /
                  static_cast<double>(satisfaction_delay_count_);
  }

  OpenSystemConfig config_;
  Xoshiro256 rng_;
  std::vector<LiveUser> users_;
  std::vector<std::size_t> free_slots_;
  std::vector<int> loads_;
  OpenSystemMetrics metrics_;
  std::uint64_t population_total_ = 0;
  std::uint64_t unsatisfied_total_ = 0;
  std::uint64_t recorded_rounds_ = 0;
  double satisfaction_delay_total_ = 0.0;
  std::uint64_t satisfaction_delay_count_ = 0;
};

}  // namespace

OpenSystemMetrics run_open_system(const OpenSystemConfig& config) {
  OpenSystem system(config);
  return system.run();
}

}  // namespace qoslb
