/// \file worker_pool.hpp
/// \brief Persistent worker-thread pool: the flow's one thread substrate.
///
/// A `FlowEngine` owns one pool whose workers take whole jobs of a
/// `run_many` batch, one netlist per worker at a time.  A serve session
/// dispatches many small batches, so a `WorkerPool` keeps its helpers alive
/// across `run` calls instead of paying thread start-up per batch.
///
/// The calling thread always participates as worker 0, so a pool of N
/// workers spawns only N-1 threads and `WorkerPool(1)` spawns none (every
/// `run` is then an inline call).

#pragma once

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
