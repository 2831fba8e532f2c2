#include "stats/replication.hpp"

#include "rng/splitmix64.hpp"
#include "util/check.hpp"

namespace qoslb {

ReplicationResult replicate(std::uint64_t root_seed, std::size_t replications,
                            const std::function<double(std::uint64_t)>& body) {
  QOSLB_REQUIRE(replications > 0, "need at least one replication");
  ReplicationResult result;
  result.samples.reserve(replications);
  for (std::size_t r = 0; r < replications; ++r) {
    result.samples.push_back(body(derive_seed(root_seed, r)));
    result.stat.add(result.samples.back());
  }
  return result;
}

}  // namespace qoslb
