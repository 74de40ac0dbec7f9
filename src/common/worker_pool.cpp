#include "common/worker_pool.hpp"

#include <algorithm>
#include <atomic>

#include "common/require.hpp"

namespace t1map {

WorkerPool::WorkerPool(int num_workers)
    : num_workers_(std::max(1, num_workers)) {
  helpers_.reserve(static_cast<std::size_t>(num_workers_ - 1));
  for (int id = 1; id < num_workers_; ++id) {
    helpers_.emplace_back([this, id] { helper_main(id); });
  }
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

void WorkerPool::helper_main(const int id) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] {
        return stopping_ || generation_ != seen_generation;
      });
      if (stopping_) return;
      seen_generation = generation_;
      job = job_;
    }
    std::exception_ptr error;
    try {
      (*job)(id);
    } catch (...) {
      error = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (error && !first_error_) first_error_ = error;
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

void WorkerPool::run(const std::function<void(int)>& fn) {
  if (num_workers_ == 1) {
    fn(0);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    T1MAP_REQUIRE(job_ == nullptr, "WorkerPool::run is not reentrant");
    job_ = &fn;
    pending_ = num_workers_ - 1;
    ++generation_;
  }
  start_cv_.notify_all();

  std::exception_ptr caller_error;
  try {
    fn(0);
  } catch (...) {
    caller_error = std::current_exception();
  }

  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
  job_ = nullptr;
  // The caller's exception wins ties deterministically; a helper error
  // surfaces whenever the caller completed.
  std::exception_ptr error = caller_error ? caller_error : first_error_;
  first_error_ = nullptr;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void for_each_chunk(
    WorkerPool* pool, std::size_t count, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, int)>& fn) {
  if (count == 0) return;
  if (grain == 0) grain = 1;
  if (pool == nullptr || pool->num_workers() <= 1 || count <= grain) {
    fn(0, count, 0);
    return;
  }
  std::atomic<std::size_t> next{0};
  pool->run([&](int worker) {
    for (;;) {
      const std::size_t begin =
          next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= count) return;
      fn(begin, std::min(count, begin + grain), worker);
    }
  });
}

}  // namespace t1map
