#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qoslb {

/// Persistent round-scoped worker pool (docs/performance.md §execution).
///
/// A generic task-queue pool pays one heap-allocated std::function plus one
/// queue lock per shard per round — at bench scales that overhead alone
/// made 2-thread rounds slower than 1 thread. This pool is specialized for
/// the round fan-out pattern instead:
///
///   * workers are spawned once and parked on a condition variable between
///     rounds — no per-round thread creation;
///   * a round is published as one (body, count) batch under a single lock
///     (one notify_all, not one enqueue per shard);
///   * participants claim shard indices from a shared atomic cursor, so the
///     only per-shard cost is one uncontended fetch_add;
///   * the caller participates as a worker, so `participants` threads of
///     work need only `participants - 1` parked threads.
///
/// Determinism is unaffected by construction: the pool decides only *which
/// participant* executes a shard, never what the shard computes — shard
/// bodies write exclusively shard-local data and the commit consumes the
/// buffers in shard order (the Engine's sharded round, core/engine.cpp).
class RoundWorkerPool {
 public:
  /// `participants == 0` selects std::thread::hardware_concurrency()
  /// (min 1). Spawns `participants - 1` parked workers; run() contributes
  /// the calling thread as the final participant.
  explicit RoundWorkerPool(std::size_t participants = 0);
  ~RoundWorkerPool();

  RoundWorkerPool(const RoundWorkerPool&) = delete;
  RoundWorkerPool& operator=(const RoundWorkerPool&) = delete;

  std::size_t participants() const { return workers_.size() + 1; }

  /// Runs `body(i)` for every i in [0, count) across the participants and
  /// returns when all of them have finished the batch. The first exception
  /// thrown by any body is rethrown here (remaining indices of the batch
  /// are abandoned). Not reentrant; one batch at a time.
  void run(std::size_t count, const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();
  /// Claims indices off next_ until the batch is exhausted, then checks in.
  void work_batch();

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_;
  std::condition_variable done_;
  // Batch state, published under mutex_ and read by workers after the epoch
  // bump wakes them. next_ is the shared shard cursor (the one hot word).
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t count_ = 0;
  std::uint64_t epoch_ = 0;
  std::size_t working_ = 0;  // participants that have not checked in yet
  std::exception_ptr first_error_;
  bool stopping_ = false;
  alignas(64) std::atomic<std::size_t> next_{0};
};

}  // namespace qoslb
