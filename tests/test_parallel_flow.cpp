// WorkerPool correctness: full id coverage, reuse across runs, chunk
// dealing and exception propagation.  The pool is the substrate of
// FlowEngine::run_many's batch workers, whose determinism test_flow_engine
// covers.
//
// This suite runs under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/worker_pool.hpp"

namespace t1map {
namespace {

TEST(WorkerPool, RunsEveryWorkerIdOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4);
  std::vector<std::atomic<int>> hits(4);
  for (int round = 0; round < 3; ++round) {  // reuse across runs
    for (auto& h : hits) h.store(0);
    pool.run([&](int w) { hits[w].fetch_add(1); });
    for (int w = 0; w < 4; ++w) EXPECT_EQ(hits[w].load(), 1) << w;
  }
}

TEST(WorkerPool, SingleWorkerRunsInline) {
  WorkerPool pool(1);
  int calls = 0;
  pool.run([&](int w) {
    EXPECT_EQ(w, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(WorkerPool, RethrowsWorkerException) {
  WorkerPool pool(3);
  EXPECT_THROW(
      pool.run([&](int w) {
        if (w == 1) throw std::runtime_error("helper boom");
      }),
      std::runtime_error);
  EXPECT_THROW(pool.run([&](int) { throw std::runtime_error("all boom"); }),
               std::runtime_error);
  // The pool survives an exceptional run.
  std::atomic<int> ok{0};
  pool.run([&](int) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 3);
}

TEST(WorkerPool, ForEachChunkCoversRangeExactlyOnce) {
  WorkerPool pool(4);
  const std::size_t count = 1003;
  std::vector<std::atomic<int>> seen(count);
  for (auto& s : seen) s.store(0);
  for_each_chunk(&pool, count, 16,
                 [&](std::size_t begin, std::size_t end, int) {
                   for (std::size_t i = begin; i < end; ++i) {
                     seen[i].fetch_add(1);
                   }
                 });
  for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(seen[i].load(), 1) << i;
  // Null pool: inline single chunk.
  int inline_calls = 0;
  for_each_chunk(nullptr, 10, 4, [&](std::size_t b, std::size_t e, int w) {
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 10u);
    EXPECT_EQ(w, 0);
    ++inline_calls;
  });
  EXPECT_EQ(inline_calls, 1);
}

}  // namespace
}  // namespace t1map
