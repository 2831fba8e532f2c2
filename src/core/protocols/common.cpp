#include "core/protocols/common.hpp"

#include <algorithm>

#include "core/satisfaction_scan.hpp"
#include "core/weighted/weighted_state.hpp"

namespace qoslb {

std::span<const UserId> unsatisfied_prefilter(
    const State& state, const std::vector<int>& load_snapshot,
    const UserId* users, std::size_t count) {
  thread_local std::vector<UserId> scratch;
  if (scratch.size() < count) scratch.resize(count);
  const std::size_t written = collect_unsatisfied(
      state.assignment().data(), state.current_thresholds().data(),
      load_snapshot.data(), users, count, scratch.data());
  return {scratch.data(), written};
}

void merge_shard_requests(const std::vector<MigrationBuffer>& shards,
                          std::vector<MigrationRequest>& out) {
  std::size_t total = 0;
  for (const MigrationBuffer& shard : shards) total += shard.requests.size();
  out.clear();
  out.resize(total);
  std::size_t offset = 0;  // exclusive prefix sum of shard sizes
  for (const MigrationBuffer& shard : shards) {
    std::copy(shard.requests.begin(), shard.requests.end(),
              out.begin() + static_cast<std::ptrdiff_t>(offset));
    offset += shard.requests.size();
  }
}

template <typename Model>
void apply_all(BasicState<Model>& state,
               const std::vector<MigrationRequest>& requests,
               Counters& counters) {
  for (const MigrationRequest& req : requests) {
    state.move(req.user, req.target);
    ++counters.migrations;
  }
}

template <typename Model>
void resident_min_thresholds(const BasicState<Model>& state,
                             std::vector<typename Model::Load>& out) {
  out.resize(state.num_resources());
  for (ResourceId r = 0; r < state.num_resources(); ++r)
    out[r] = state.satisfied_resident_min(r);
}

template <typename Model>
std::vector<typename Model::Load> resident_min_thresholds(
    const BasicState<Model>& state) {
  std::vector<typename Model::Load> min_threshold;
  resident_min_thresholds(state, min_threshold);
  return min_threshold;
}

namespace {

/// A migration request keyed by the requester's threshold on its target.
template <typename Load>
struct KeyedRequest {
  Load threshold;
  UserId user;
};

}  // namespace

template <typename Model>
void apply_with_admission(BasicState<Model>& state,
                          const std::vector<MigrationRequest>& requests,
                          Counters& counters) {
  using Load = typename Model::Load;
  counters.migrate_requests += requests.size();
  if (requests.empty()) return;

  state.enable_satisfaction_tracking();
  // Taken before any grant moves a user: the gate protects the residents
  // satisfied at the round boundary.
  thread_local std::vector<Load> resident_min;
  resident_min_thresholds(state, resident_min);

  // Group requests by target with a counting pass. After the scatter,
  // group_end[r] is the end of r's group and the start of r + 1's.
  const Model& instance = state.instance();
  const std::size_t m = state.num_resources();
  thread_local std::vector<std::size_t> group_end;
  thread_local std::vector<KeyedRequest<Load>> grouped;
  group_end.assign(m + 1, 0);
  for (const MigrationRequest& req : requests) ++group_end[req.target + 1];
  for (std::size_t r = 0; r < m; ++r) group_end[r + 1] += group_end[r];
  grouped.resize(requests.size());
  for (const MigrationRequest& req : requests)
    grouped[group_end[req.target]++] =
        KeyedRequest<Load>{instance.threshold(req.user, req.target), req.user};

  std::size_t begin = 0;
  for (ResourceId r = 0; r < m; ++r) {
    const std::size_t end = group_end[r];
    if (begin == end) continue;
    const auto first = grouped.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last = grouped.begin() + static_cast<std::ptrdiff_t>(end);
    std::sort(first, last,
              [](const KeyedRequest<Load>& a, const KeyedRequest<Load>& b) {
                if (a.threshold != b.threshold) return a.threshold > b.threshold;
                return a.user < b.user;  // deterministic tie-break
              });
    const std::size_t size = end - begin;
    // The admitted prefix's load: its size in the unit model, its total
    // weight in the weighted one.
    Load post_load = state.load(r);
    std::size_t admitted = 0;
    while (admitted < size) {
      post_load += instance.weight(first[admitted].user);
      if (post_load > resident_min[r] || post_load > first[admitted].threshold)
        break;
      ++admitted;
    }
    for (std::size_t i = 0; i < admitted; ++i) state.move(first[i].user, r);
    counters.migrations += admitted;
    counters.grants += admitted;
    counters.rejects += size - admitted;
    begin = end;
  }
}

template void apply_all(State&, const std::vector<MigrationRequest>&,
                        Counters&);
template void apply_all(WeightedState&, const std::vector<MigrationRequest>&,
                        Counters&);
template void apply_with_admission(State&, const std::vector<MigrationRequest>&,
                                   Counters&);
template void apply_with_admission(WeightedState&,
                                   const std::vector<MigrationRequest>&,
                                   Counters&);
template std::vector<int> resident_min_thresholds(const State&);
template std::vector<std::int64_t> resident_min_thresholds(
    const WeightedState&);
template void resident_min_thresholds(const State&, std::vector<int>&);
template void resident_min_thresholds(const WeightedState&,
                                      std::vector<std::int64_t>&);

}  // namespace qoslb
