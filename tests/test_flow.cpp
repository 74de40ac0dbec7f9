// End-to-end flow tests: the three Table-I configurations (1φ, 4φ, 4φ+T1)
// on small arithmetic circuits, with equivalence, timing and the paper's
// qualitative claims (multiphase divides DFFs ~by n; T1 shrinks adders).

#include <gtest/gtest.h>

#include "gen/arith.hpp"
#include "gen/iscas.hpp"
#include "gen/registry.hpp"
#include "retime/timing_check.hpp"
#include "sat/cec.hpp"
#include "sfq/netlist_sim.hpp"
#include "t1/flow_engine.hpp"

namespace t1map::t1 {
namespace {

FlowParams baseline(int phases) {
  FlowParams p;
  p.num_phases = phases;
  p.use_t1 = false;
  return p;
}

FlowParams with_t1(int phases = 4) {
  FlowParams p;
  p.num_phases = phases;
  p.use_t1 = true;
  return p;
}

TEST(Flow, AdderAllThreeConfigs) {
  const Aig aig = gen::ripple_adder(16);

  FlowEngine engine;
  const EngineResult r1 = engine.run(aig, baseline(1));
  ASSERT_TRUE(r1.ok()) << r1.diagnostics.to_string();
  const EngineResult r4 = engine.run(aig, baseline(4));
  ASSERT_TRUE(r4.ok()) << r4.diagnostics.to_string();
  const EngineResult rt = engine.run(aig, with_t1(4));
  ASSERT_TRUE(rt.ok()) << rt.diagnostics.to_string();

  // Multiphase kills most path-balancing DFFs (paper: 4φ/1φ ≈ 0.18-0.52).
  EXPECT_LT(r4.stats.dffs, r1.stats.dffs / 2);
  // T1 substitution shrinks the adder further (paper: -25% area vs 4φ).
  EXPECT_LT(rt.stats.area_jj, r4.stats.area_jj);
  // 15 of 16 bit slices are full adders.
  EXPECT_EQ(rt.stats.t1_used, 15);
  EXPECT_EQ(rt.stats.t1_cores, 15);
  // Depth in cycles: 1φ ~ stages; 4φ ~ stages/4; T1 slightly deeper.
  EXPECT_GT(r1.stats.depth_cycles, 3 * r4.stats.depth_cycles);
  EXPECT_GE(rt.stats.depth_cycles, r4.stats.depth_cycles);
}

TEST(Flow, AdderT1SatEquivalence) {
  const Aig aig = gen::ripple_adder(8);
  FlowEngine engine;
  const EngineResult rt = engine.run(aig, with_t1(4));
  ASSERT_TRUE(rt.ok()) << rt.diagnostics.to_string();
  // The flow already ran random equivalence; prove it with SAT too.
  const auto cec = sat::check_equivalence(aig, rt.materialized.netlist);
  EXPECT_EQ(cec.verdict, sat::CecResult::Verdict::kEquivalent);
}

TEST(Flow, T1RequiresThreePhases) {
  const Aig aig = gen::ripple_adder(4);
  FlowEngine engine;
  EXPECT_THROW(engine.run(aig, with_t1(2)), ContractError);
}

TEST(Flow, TimingValidatedInternally) {
  // The default pipeline checks timing; re-validate here for belt and
  // braces.
  const Aig aig = gen::squarer(8);
  FlowEngine engine;
  for (const auto& params :
       {baseline(1), baseline(4), with_t1(4), with_t1(6)}) {
    const EngineResult r = engine.run(aig, params);
    ASSERT_TRUE(r.ok()) << r.diagnostics.to_string();
    const auto report =
        retime::check_timing(r.materialized.netlist, r.materialized.stages);
    EXPECT_TRUE(report.ok);
    EXPECT_TRUE(sfq::random_equivalent(aig, r.materialized.netlist, 16));
  }
}

TEST(Flow, MultiplierT1Profitable) {
  const Aig aig = gen::array_multiplier(8);
  FlowEngine engine;
  const EngineResult r4 = engine.run(aig, baseline(4));
  ASSERT_TRUE(r4.ok()) << r4.diagnostics.to_string();
  const EngineResult rt = engine.run(aig, with_t1(4));
  ASSERT_TRUE(rt.ok()) << rt.diagnostics.to_string();
  EXPECT_GT(rt.stats.t1_used, 20);  // FA-rich array
  EXPECT_LT(rt.stats.area_jj, r4.stats.area_jj);
}

TEST(Flow, StatsAreConsistent) {
  const Aig aig = gen::ripple_adder(8);
  FlowEngine engine;
  const EngineResult r = engine.run(aig, with_t1(4));
  ASSERT_TRUE(r.ok()) << r.diagnostics.to_string();
  const auto& mat = r.materialized.netlist;
  EXPECT_EQ(r.stats.dffs,
            static_cast<long>(mat.count_kind(sfq::CellKind::kDff)));
  EXPECT_EQ(r.stats.area_jj, mat.cell_area_jj_total());
  EXPECT_EQ(r.stats.t1_cores, static_cast<long>(mat.num_t1()));
  EXPECT_GE(r.stats.t1_found, r.stats.t1_used);
  EXPECT_EQ(r.stats.depth_cycles,
            retime::ceil_div(r.stats.num_stages, 4));
}

TEST(Flow, DisablingOptimizationStillLegal) {
  const Aig aig = gen::adder_comparator(8);
  FlowParams p = with_t1(4);
  p.optimize_stages = false;
  FlowEngine engine;
  const EngineResult r = engine.run(aig, p);
  ASSERT_TRUE(r.ok()) << r.diagnostics.to_string();
  EXPECT_TRUE(sfq::random_equivalent(aig, r.materialized.netlist, 16));

  FlowParams q = with_t1(4);
  const EngineResult opt = engine.run(aig, q);
  ASSERT_TRUE(opt.ok()) << opt.diagnostics.to_string();
  EXPECT_LE(opt.stats.dffs, r.stats.dffs);
}

TEST(Flow, PhaseSweepMonotonicity) {
  // More phases can only help (or tie) the DFF bill on the baseline flow.
  const Aig aig = gen::squarer(6);
  FlowEngine engine;
  long prev = -1;
  for (const int phases : {1, 2, 4, 8}) {
    const EngineResult r = engine.run(aig, baseline(phases));
    ASSERT_TRUE(r.ok()) << r.diagnostics.to_string();
    if (prev >= 0) {
      EXPECT_LE(r.stats.dffs, prev) << phases;
    }
    prev = r.stats.dffs;
  }
}

}  // namespace
}  // namespace t1map::t1
