#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "stats/summary.hpp"

namespace qoslb {

/// Result of running one metric across independent replications.
struct ReplicationResult {
  RunningStat stat;
  std::vector<double> samples;  // per-replication values, replication order
};

/// Runs `body(seed)` for `replications` deterministic child seeds derived from
/// `root_seed` and aggregates the returned metric. Each replication owns its
/// derived seed, so a replication's value depends on nothing but its index.
ReplicationResult replicate(std::uint64_t root_seed, std::size_t replications,
                            const std::function<double(std::uint64_t)>& body);

}  // namespace qoslb
