// WorkerPool correctness: full id coverage, reuse across runs, inline
// single-worker runs and exception propagation.  The pool is the substrate of
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

}  // namespace
}  // namespace t1map
