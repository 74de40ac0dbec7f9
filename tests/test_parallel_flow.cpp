// Intra-netlist parallelism tests (PR 7):
//   * WorkerPool correctness: full id coverage, reuse across runs, chunk
//     dealing, exception propagation;
//   * the flow is bit-identical at 1 vs. N intra-pass threads (BLIF of the
//     mapped and materialized netlists plus every statistic) on the seven
//     golden generators and the deep cordic28 / log2_16 chains;
//   * level-parallel cut enumeration reproduces the serial cut sets.
//
// This suite runs under TSan in CI — the threaded paths here are the data
// they validate.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/worker_pool.hpp"
#include "cut/cut_enum.hpp"
#include "gen/registry.hpp"
#include "golden_flow.hpp"
#include "io/blif.hpp"
#include "t1/flow_engine.hpp"

namespace t1map {
namespace {

// --- WorkerPool --------------------------------------------------------------

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

// --- Level-parallel cut enumeration ------------------------------------------

TEST(ParallelCuts, MatchesSerialEnumeration) {
  const Aig aig = gen::make_named("mul8");
  const CutParams params{/*k=*/3, /*max_cuts=*/16};
  CutWorkspace serial_ws;
  enumerate_cuts_into(aig, params, serial_ws);

  WorkerPool pool(4);
  CutWorkspace par_ws;
  ParallelCutScratch par;
  enumerate_cuts_parallel(aig, params, par_ws, &pool, par);

  ASSERT_EQ(serial_ws.cuts.size(), par_ws.cuts.size());
  EXPECT_EQ(serial_ws.cuts.total_cuts(), par_ws.cuts.total_cuts());
  for (std::uint32_t n = 0; n < serial_ws.cuts.size(); ++n) {
    const auto a = serial_ws.cuts[n];
    const auto b = par_ws.cuts[n];
    ASSERT_EQ(a.size(), b.size()) << "node " << n;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(a[i].leaves == b[i].leaves) << "node " << n;
      EXPECT_EQ(a[i].sig, b[i].sig) << "node " << n;
      EXPECT_TRUE(a[i].tt == b[i].tt) << "node " << n;
    }
  }
}

// --- Flow determinism at 1 vs N intra-pass threads ---------------------------

std::string to_blif(const sfq::Netlist& ntk) {
  std::ostringstream os;
  io::write_blif(os, ntk, "m");
  return os.str();
}

std::string stats_key(const t1::FlowStats& s) {
  std::ostringstream os;
  os << s.dffs << ' ' << s.area_jj << ' ' << s.depth_cycles << ' '
     << s.t1_found << ' ' << s.t1_used << ' ' << s.t1_cores << ' '
     << s.logic_cells << ' ' << s.splitters << ' ' << s.num_stages;
  return os.str();
}

void expect_threaded_flow_identical(const std::string& gen_name) {
  const Aig aig = gen::make_named(gen_name);
  t1::FlowParams params;
  params.num_phases = 4;
  params.use_t1 = true;
  params.verify_rounds = 0;

  t1::FlowEngine serial_engine;
  const t1::EngineResult serial = serial_engine.run(aig, params);
  ASSERT_TRUE(serial.ok()) << gen_name;

  t1::FlowEngine threaded_engine;
  threaded_engine.set_threads(4);
  const t1::EngineResult threaded = threaded_engine.run(aig, params);
  ASSERT_TRUE(threaded.ok()) << gen_name;

  EXPECT_EQ(to_blif(serial.mapped), to_blif(threaded.mapped)) << gen_name;
  EXPECT_EQ(to_blif(serial.materialized.netlist),
            to_blif(threaded.materialized.netlist))
      << gen_name;
  EXPECT_EQ(stats_key(serial.stats), stats_key(threaded.stats)) << gen_name;
}

TEST(ParallelFlow, GoldenGeneratorsIdenticalAt4Threads) {
  std::string last;
  for (const Golden& g : golden_rows()) {
    if (g.gen == last) continue;
    last = g.gen;
    expect_threaded_flow_identical(g.gen);
  }
}

// Deep chains: thousands of nodes across many narrow levels — the worst
// case for level-parallel scheduling overhead, and the shape where a
// nondeterministic reduction would show first.  (The issue's log2_24 does
// not exist: the log2 generator only accepts power-of-two widths >= 4, so
// log2_16 is the deep log2 representative.)
TEST(ParallelFlow, DeepNetlistsIdenticalAt4Threads) {
  expect_threaded_flow_identical("cordic28");
  expect_threaded_flow_identical("log2_16");
}

// The one-knob split: run_many over a batch smaller than the budget spills
// the surplus into the passes; results must match the serial batch.
TEST(ParallelFlow, RunManySpillIdentical) {
  const Aig a = gen::make_named("adder16");
  const Aig b = gen::make_named("voter25");
  const Aig c = gen::make_named("comparator16");
  const std::vector<const Aig*> batch = {&a, &b, &c};
  t1::FlowParams params;
  params.verify_rounds = 0;

  t1::FlowEngine engine;
  const auto serial = engine.run_many(batch, params, 1);
  const auto spilled = engine.run_many(batch, params, 8);  // 3 outer, 2 intra
  ASSERT_EQ(serial.size(), spilled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok() && spilled[i].ok()) << i;
    EXPECT_EQ(to_blif(serial[i].materialized.netlist),
              to_blif(spilled[i].materialized.netlist))
        << i;
    EXPECT_EQ(stats_key(serial[i].stats), stats_key(spilled[i].stats)) << i;
  }
}

}  // namespace
}  // namespace t1map
