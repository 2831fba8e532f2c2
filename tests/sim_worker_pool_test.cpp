// sim/worker_pool.hpp — the persistent round worker pool behind the
// Engine's decide fan-out.

#include "sim/worker_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace qoslb {
namespace {

TEST(RoundWorkerPool, RunsEveryIndexExactlyOnce) {
  RoundWorkerPool pool(4);
  EXPECT_EQ(pool.participants(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(RoundWorkerPool, ReusableAcrossManyRounds) {
  RoundWorkerPool pool(3);
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 200; ++round)
    pool.run(64, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 200u * (63u * 64u / 2));
}

TEST(RoundWorkerPool, HandlesEmptyAndTinyBatches) {
  RoundWorkerPool pool(8);
  std::atomic<int> calls{0};
  pool.run(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  pool.run(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 1);
}

TEST(RoundWorkerPool, SingleParticipantRunsInline) {
  RoundWorkerPool pool(1);
  EXPECT_EQ(pool.participants(), 1u);
  std::vector<int> order;
  // With one participant there are no workers; the caller executes every
  // index itself, in ascending claim order.
  pool.run(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(RoundWorkerPool, DefaultsToHardwareConcurrency) {
  RoundWorkerPool pool;
  EXPECT_GE(pool.participants(), 1u);
}

TEST(RoundWorkerPool, PropagatesTheFirstBodyException) {
  RoundWorkerPool pool(4);
  EXPECT_THROW(
      pool.run(100,
               [&](std::size_t i) {
                 if (i == 17) throw std::runtime_error("boom");
               }),
      std::runtime_error);
  // The pool survives the failed batch and runs clean batches afterwards.
  std::atomic<int> calls{0};
  pool.run(32, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 32);
}

}  // namespace
}  // namespace qoslb
