// FlowEngine API tests:
//   * the fixed flow, executed through one engine with reused scratch
//     state, reproduces the seed golden statistics bit-for-bit on all seven
//     regression generators (test_flow_regression runs them cold);
//   * run_many is deterministic: the same inputs on 1 vs N threads yield
//     identical FlowStats, on workers that persist across batches of any
//     shape and across a failed batch (this suite is also a TSan CI target);
//   * only runs on worker 0 alone reuse from the pass memo;
//   * the checks: the CEC verdict, an inconclusive CEC never cached, the
//     run without CEC, structured diagnostics and per-pass stage times.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "gen/arith.hpp"
#include "gen/registry.hpp"
#include "golden_flow.hpp"
#include "io/blif.hpp"
#include "t1/flow_engine.hpp"

namespace t1map::t1 {
namespace {

FlowParams golden_params(const Golden& g) {
  FlowParams params;
  params.num_phases = g.phases;
  params.use_t1 = g.use_t1;
  params.verify_rounds = 0;  // stats only, as in test_flow_regression
  return params;
}

void expect_stats_match(const FlowStats& s, const Golden& g,
                        const std::string& label) {
  EXPECT_EQ(s.area_jj, g.jj_total) << label;
  EXPECT_EQ(s.dffs, g.dffs) << label;
  EXPECT_EQ(s.depth_cycles, g.depth_cycles) << label;
  EXPECT_EQ(s.num_stages, g.num_stages) << label;
  EXPECT_EQ(s.logic_cells, g.logic_cells) << label;
  EXPECT_EQ(s.splitters, g.splitters) << label;
  EXPECT_EQ(s.t1_found, g.t1_found) << label;
  EXPECT_EQ(s.t1_used, g.t1_used) << label;
}

std::string to_blif(const sfq::Netlist& ntk) {
  std::ostringstream os;
  io::write_blif(os, ntk, "m");
  return os.str();
}

std::vector<FlowJob> jobs_of(const std::vector<const Aig*>& aigs,
                             const FlowParams& params) {
  std::vector<FlowJob> jobs;
  for (const Aig* aig : aigs) jobs.push_back({aig, params, {}});
  return jobs;
}

/// Both results succeeded and agree bit-for-bit: netlists and statistics.
void expect_identical(const EngineResult& a, const EngineResult& b,
                      const std::string& label) {
  ASSERT_TRUE(a.ok()) << label << ": " << a.diagnostics.to_string();
  ASSERT_TRUE(b.ok()) << label << ": " << b.diagnostics.to_string();
  EXPECT_EQ(to_blif(a.mapped), to_blif(b.mapped)) << label;
  EXPECT_EQ(to_blif(a.materialized.netlist), to_blif(b.materialized.netlist))
      << label;
  EXPECT_EQ(a.stats.area_jj, b.stats.area_jj) << label;
  EXPECT_EQ(a.stats.dffs, b.stats.dffs) << label;
  EXPECT_EQ(a.stats.depth_cycles, b.stats.depth_cycles) << label;
  EXPECT_EQ(a.stats.num_stages, b.stats.num_stages) << label;
  EXPECT_EQ(a.stats.logic_cells, b.stats.logic_cells) << label;
  EXPECT_EQ(a.stats.splitters, b.stats.splitters) << label;
  EXPECT_EQ(a.stats.t1_found, b.stats.t1_found) << label;
  EXPECT_EQ(a.stats.t1_used, b.stats.t1_used) << label;
}

// One engine across all 21 golden configurations: scratch-state reuse must
// not perturb any result.
TEST(FlowEngine, DefaultPipelineReproducesGoldenStats) {
  FlowEngine engine;
  std::string last_gen;
  Aig aig;
  for (const Golden& g : golden_rows()) {
    if (g.gen != last_gen) {
      aig = gen::make_named(g.gen);
      last_gen = g.gen;
    }
    const EngineResult r = engine.run(aig, golden_params(g));
    const std::string label =
        g.gen + " phases=" + std::to_string(g.phases) +
        (g.use_t1 ? " t1" : " baseline");
    EXPECT_TRUE(r.ok()) << label << ": " << r.diagnostics.to_string();
    expect_stats_match(r.stats, g, label);
  }
}

TEST(FlowEngine, RunManyMatchesSingleThreadedExecution) {
  const std::vector<std::string> names = {
      "adder16", "adder64", "mul8", "square12",
      "voter25", "comparator16", "sin12",
  };
  std::vector<Aig> aigs;
  aigs.reserve(names.size());
  for (const std::string& name : names) aigs.push_back(gen::make_named(name));
  std::vector<const Aig*> batch;
  for (const Aig& aig : aigs) batch.push_back(&aig);

  FlowParams params;
  params.num_phases = 4;
  params.use_t1 = true;
  params.verify_rounds = 2;

  const std::vector<FlowJob> jobs = jobs_of(batch, params);
  FlowEngine engine;
  const std::vector<EngineResult> seq = engine.run_many(jobs);
  engine.set_threads(4);
  const std::vector<EngineResult> par = engine.run_many(jobs);

  ASSERT_EQ(seq.size(), batch.size());
  ASSERT_EQ(par.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_identical(seq[i], par[i], names[i]);
  }
}

// The workers and their scratch persist across batches of every shape:
// 4 jobs on 4 workers, 2 jobs on 2 of the 4, 1 job inline on worker 0,
// then 4 again.
TEST(FlowEngine, PersistentWorkersMatchOneThreadAcrossBatchShapes) {
  const std::vector<std::string> names = {"adder16", "mul8", "voter25",
                                          "comparator16"};
  std::vector<Aig> aigs;
  for (const std::string& name : names) aigs.push_back(gen::make_named(name));
  FlowParams params;
  params.verify_rounds = 2;

  FlowEngine serial;
  FlowEngine threaded;
  threaded.set_threads(4);
  std::size_t shift = 0;
  for (const std::size_t size : {4u, 2u, 1u, 4u}) {
    std::vector<const Aig*> batch;
    for (std::size_t j = 0; j < size; ++j) {
      batch.push_back(&aigs[(shift + j) % aigs.size()]);
    }
    ++shift;  // a different job mix on each worker every batch
    const std::vector<FlowJob> jobs = jobs_of(batch, params);
    const std::vector<EngineResult> ref = serial.run_many(jobs);
    const std::vector<EngineResult> got = threaded.run_many(jobs);
    ASSERT_EQ(got.size(), size);
    for (std::size_t j = 0; j < size; ++j) {
      expect_identical(ref[j], got[j],
                       "batch of " + std::to_string(size) + ", job " +
                           std::to_string(j));
    }
  }
}

TEST(FlowEngine, ContractErrorInABatchLeavesTheEngineUsable) {
  const Aig adder = gen::ripple_adder(8);
  FlowParams broken;
  broken.num_phases = 2;  // the T1 flow needs at least 3
  broken.use_t1 = true;
  FlowEngine engine;
  engine.set_threads(4);
  const std::vector<FlowJob> bad = {
      {&adder, FlowParams{}, {}}, {&adder, broken, {}}, {&adder, {}, {}}};
  EXPECT_THROW(engine.run_many(bad), ContractError);

  const std::vector<FlowJob> good = {{&adder, FlowParams{}, {}},
                                     {&adder, FlowParams{}, {}}};
  const std::vector<EngineResult> results = engine.run_many(good);
  ASSERT_EQ(results.size(), 2u);
  expect_identical(results[0], results[1], "after the failed batch");
}

// The cone memo is single-threaded state: a batch spread over several
// workers runs cold even on a design the memo holds, and the next run on
// worker 0 alone still splices from it.
TEST(FlowEngine, OnlyRunsOnWorkerZeroSpliceFromTheMemo) {
  const Aig adder = gen::make_named("adder16");
  const Aig mul = gen::make_named("mul8");
  FlowParams params;
  params.verify_rounds = 0;
  FlowEngine engine;
  engine.set_threads(4);
  const EngineResult cold = engine.run(adder, params);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.reuse.map_cones_reused, 0u);

  const std::vector<EngineResult> spread =
      engine.run_many(jobs_of({&adder, &mul}, params));
  for (const EngineResult& r : spread) {
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r.reuse.map_cones_total, 0u);
    EXPECT_EQ(r.reuse.map_cones_reused, 0u);
    EXPECT_EQ(r.reuse.t1_cones_reused, 0u);
    EXPECT_FALSE(r.reuse.t1_exact);
    EXPECT_FALSE(r.reuse.stage_spliced);
  }

  const std::vector<EngineResult> alone =
      engine.run_many(jobs_of({&adder}, params));
  ASSERT_EQ(alone.size(), 1u);
  const ReuseCounters& reuse = alone[0].reuse;
  EXPECT_EQ(reuse.map_cones_reused, reuse.map_cones_total);
  EXPECT_TRUE(reuse.t1_exact);
  EXPECT_TRUE(reuse.stage_spliced);
  expect_identical(alone[0], spread[0], "adder16 warm vs cold");
}

TEST(FlowEngine, RunManyMoreThreadsThanWork) {
  const Aig adder = gen::ripple_adder(8);
  FlowEngine engine;
  engine.set_threads(16);
  const auto results = engine.run_many(jobs_of({&adder, &adder}, {}));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[0].stats.area_jj, results[1].stats.area_jj);
}

TEST(FlowEngine, CecPassRecordsVerdictAndTiming) {
  const Aig aig = gen::ripple_adder(8);
  FlowEngine engine(Pipeline::default_flow(/*with_cec=*/true));
  const EngineResult r = engine.run(aig, FlowParams{});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.cec, "equivalent");
  EXPECT_GE(r.times.cec, 0.0);
}

/// Records what `run_many` offers and finds.
class RecordingCache final : public RunCache {
 public:
  bool lookup(const RunKey& key, EngineResult& out) override {
    for (const auto& [k, r] : entries_) {
      if (k == key) {
        out = r;
        return true;
      }
    }
    return false;
  }
  void store(const RunKey& key, const EngineResult& result) override {
    entries_.emplace_back(key, result);
  }
  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<std::pair<RunKey, EngineResult>> entries_;
};

TEST(FlowEngine, InconclusiveCecIsNeverCached) {
  // sin10's T1 flow exhausts a zero conflict budget: a real inconclusive
  // CEC.
  const Aig aig = gen::make_named("sin10");
  FlowParams exhausted;
  exhausted.cec_conflict_limit = 0;
  // The same job twice.
  const std::vector<FlowJob> batch = {{&aig, exhausted, RunKey{1, 2}},
                                      {&aig, exhausted, RunKey{1, 2}}};
  RecordingCache cache;
  std::vector<std::uint8_t> cached;

  FlowEngine engine(Pipeline::default_flow(/*with_cec=*/true));
  const auto first = engine.run_many(batch, &cache, &cached);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_TRUE(first[0].ok());
  EXPECT_EQ(first[0].cec, "unknown");
  EXPECT_EQ(first[1].cec, "unknown");  // the duplicate copies the result
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cached, (std::vector<std::uint8_t>{0, 0}));

  // A repeat of the job misses the cache and runs again.
  const auto again = engine.run_many(batch, &cache, &cached);
  EXPECT_EQ(again[0].cec, "unknown");
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cached, (std::vector<std::uint8_t>{0, 0}));

  // A conclusive run under the same key is stored and then hit.
  const std::vector<FlowJob> conclusive = {{&aig, FlowParams{}, RunKey{1, 2}},
                                           {&aig, FlowParams{}, RunKey{1, 2}}};
  const auto proved = engine.run_many(conclusive, &cache, &cached);
  EXPECT_EQ(proved[0].cec, "equivalent");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cached, (std::vector<std::uint8_t>{0, 1}));
}

TEST(FlowEngine, RunWithoutCecProducesGoldenStats) {
  const Aig aig = gen::make_named("adder16");
  FlowParams params;
  params.num_phases = 4;
  params.use_t1 = true;
  FlowEngine engine;  // the default flow: no CEC
  const EngineResult r = engine.run(aig, params);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.has_materialized);
  EXPECT_EQ(r.stats.area_jj, 1058);
  EXPECT_EQ(r.stats.t1_used, 15);
  EXPECT_TRUE(r.diagnostics.empty());
  EXPECT_EQ(r.cec, "skipped");
}

TEST(FlowEngine, T1StillRequiresThreePhases) {
  const Aig aig = gen::ripple_adder(4);
  FlowParams params;
  params.num_phases = 2;
  params.use_t1 = true;
  FlowEngine engine;
  EXPECT_THROW(engine.run(aig, params), ContractError);
}

TEST(FlowEngine, DiagnosticsRenderWithSeverityAndPass) {
  Diagnostics diags;
  EXPECT_TRUE(diags.empty());
  EXPECT_FALSE(diags.has_errors());
  diags.info("map", "mapped 10 cells");
  diags.warning("cec", "inconclusive");
  EXPECT_FALSE(diags.has_errors());
  diags.error("timing", "edge u->v illegal");
  EXPECT_TRUE(diags.has_errors());
  EXPECT_EQ(diags.first_error(), "edge u->v illegal");
  const std::string text = diags.to_string();
  EXPECT_NE(text.find("info [map] mapped 10 cells"), std::string::npos);
  EXPECT_NE(text.find("warning [cec] inconclusive"), std::string::npos);
  EXPECT_NE(text.find("error [timing] edge u->v illegal"),
            std::string::npos);
}

TEST(FlowEngine, StageTimesLandInPerPassSlots) {
  const Aig aig = gen::make_named("mul8");
  FlowEngine engine(Pipeline::default_flow(/*with_cec=*/true));
  const EngineResult r = engine.run(aig, FlowParams{});
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.times.map, 0.0);
  EXPECT_GT(r.times.t1_detect, 0.0);
  EXPECT_GT(r.times.stage_assign, 0.0);
  EXPECT_GT(r.times.dff_insert, 0.0);
  EXPECT_GT(r.times.self_check, 0.0);
  EXPECT_GT(r.times.cec, 0.0);
}

}  // namespace
}  // namespace t1map::t1
