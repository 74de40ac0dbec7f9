/// \file worker_pool.hpp
/// \brief Persistent worker-thread pool: the flow's one thread substrate.
///
/// A `FlowEngine` owns one pool whose workers take whole jobs of a
/// `run_many` batch, and each worker's `FlowScratch` owns another for the
/// per-pass parallel sections (level-parallel cut enumeration, the mapping
/// DP).  Those run many short barriers per netlist, where thread start-up
/// latency would dominate, so a `WorkerPool` keeps its helpers alive across
/// `run` calls: a pool serves every batch, or every parallel section of
/// every pass run on its scratch.
///
/// The calling thread always participates as worker 0, so a pool of N
/// workers spawns only N-1 threads and `WorkerPool(1)` spawns none (every
/// `run` is then an inline call).  Helper busy time is accounted in
/// `busy_ns()`, which is how `StageTimes::total_cpu` separates CPU cost from
/// wall time.

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

namespace t1map {

class WorkerPool {
 public:
  /// Pool of `num_workers` total workers (>= 1), the caller included.
  explicit WorkerPool(int num_workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int num_workers() const { return num_workers_; }

  /// Executes `fn(worker_id)` once per worker (ids 0..num_workers-1; the
  /// caller runs id 0) and returns when every invocation finished.  The
  /// first exception thrown by any worker is rethrown on the caller after
  /// the barrier.  Not reentrant: `fn` must not call `run` on this pool.
  void run(const std::function<void(int)>& fn);

  /// Cumulative wall-nanoseconds the *helper* threads (ids >= 1) spent
  /// inside `fn` across all `run` calls.  Worker 0 executes on the caller,
  /// so caller wall time plus `busy_ns` deltas approximates total CPU time.
  std::uint64_t busy_ns() const {
    return busy_ns_.load(std::memory_order_relaxed);
  }

 private:
  void helper_main(int id);

  const int num_workers_;
  std::vector<std::thread> helpers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t generation_ = 0;  // bumped per run(); helpers wait on it
  int pending_ = 0;               // helpers still inside the current job
  bool stopping_ = false;

  std::exception_ptr first_error_;
  std::atomic<std::uint64_t> busy_ns_{0};
};

/// Deals the index range [0, count) to the pool's workers in contiguous
/// chunks of `grain`, calling `fn(begin, end, worker_id)` per chunk.  Chunks
/// are claimed dynamically, so `fn` must only write state distinct per
/// index.  A null pool (or a single-worker pool) degenerates to one inline
/// `fn(0, count, 0)` call.
void for_each_chunk(
    WorkerPool* pool, std::size_t count, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, int)>& fn);

}  // namespace t1map
