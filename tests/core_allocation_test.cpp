// Steady-state rounds allocate nothing. This binary replaces the global
// operator new to count every heap allocation, runs each sharded kind twice
// from the same start, capped at R and at 2R rounds, and requires the two
// counts to be equal: rounds R+1 .. 2R allocated nothing. Each run goes on a
// fresh thread, so the thread-local scratch of the decide and commit starts
// empty in both and a buffer that grows in a later round counts against it.
//
// Two instances keep every round busy, and neither converges within 2R
// rounds:
//   * overloaded: at most ~n/1.05 users can be satisfied, and the
//     optimistic kinds keep overshooting, which moves the request count and
//     the active set up and down from round to round;
//   * tight: feasible with no slack and thresholds spread over 1.5x, where
//     the admission kinds keep requesting and being rejected.
// A shard size of 1024 spreads the active set over a changing number of
// shards.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/generators.hpp"
#include "core/protocols/registry.hpp"
#include "core/state.hpp"
#include "net/generators.hpp"
#include "rng/xoshiro256.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace qoslb {
namespace {

constexpr std::size_t kUsers = 20000;
constexpr std::size_t kResources = 32;
constexpr std::uint64_t kRounds = 8;  // R

struct Cell {
  const char* kind;
  EngineMode mode;
  bool overloaded;
};

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  std::string name = info.param.kind;
  for (char& c : name)
    if (c == '-') c = '_';
  name += info.param.mode == EngineMode::kActive ? "_active" : "_dense";
  return name + (info.param.overloaded ? "_overloaded" : "_tight");
}

Instance make_instance(bool overloaded) {
  if (overloaded) return make_overloaded(kUsers, kResources, 1.05);
  Xoshiro256 rng(3);
  return make_uniform_feasible(kUsers, kResources, 0.0, 1.5, rng);
}

class AllocationFree : public ::testing::TestWithParam<Cell> {};

/// The heap allocations of one run capped at `rounds`, counted from just
/// before Engine::run to just after it, on a thread of its own.
std::uint64_t allocations_of_run(const Cell& cell, std::uint64_t rounds) {
  std::uint64_t counted = 0;
  std::uint64_t ran = 0;
  std::thread([&] {
    const Instance instance = make_instance(cell.overloaded);
    const Graph hypercube = make_hypercube(5);
    ProtocolSpec spec;
    spec.kind = cell.kind;
    spec.lambda = 0.5;
    spec.graph = &hypercube;
    const auto protocol = make_protocol(spec);
    Xoshiro256 rng(7);
    State state = State::random(instance, rng);
    EngineConfig config;
    config.max_rounds = rounds;
    config.mode = cell.mode;
    config.threads = 1;
    config.shard_size = 1024;
    config.stability_check_period = std::numeric_limits<std::uint32_t>::max();
    const std::uint64_t before = g_allocations.load();
    const EngineResult result = Engine(config).run(*protocol, state, rng);
    counted = g_allocations.load() - before;
    ran = result.rounds;
  }).join();
  EXPECT_EQ(ran, rounds) << "the run converged early";
  return counted;
}

TEST_P(AllocationFree, RoundsAfterTheFirstRAllocateNothing) {
  const std::uint64_t first = allocations_of_run(GetParam(), kRounds);
  const std::uint64_t both = allocations_of_run(GetParam(), 2 * kRounds);
  EXPECT_EQ(both, first) << (both - first) << " allocations in rounds "
                         << kRounds + 1 << " to " << 2 * kRounds;
}

std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (const bool overloaded : {true, false})
    for (const char* kind : {"uniform", "adaptive", "admission", "nbr-uniform",
                             "nbr-admission", "berenbrink"})
      for (const EngineMode mode : {EngineMode::kDense, EngineMode::kActive})
        cells.push_back(Cell{kind, mode, overloaded});
  return cells;
}

INSTANTIATE_TEST_SUITE_P(ShardedKinds, AllocationFree,
                         ::testing::ValuesIn(all_cells()), cell_name);

}  // namespace
}  // namespace qoslb
