// Deep-netlist stress suite: the full FlowEngine pipeline on long-chain
// circuits (hundreds-to-thousands of stages) — the shapes that exercise the
// `t1_detect` grouping substrate and the `stage_assign` frontier sweeps
// hardest.  Asserts structural stage/DFF invariants on every result and
// that batched `run_many` execution is deterministic across thread counts.
//
// This suite intentionally stays un-labeled (not "heavy"): the ASan/UBSan
// CI leg runs it to shake sentinel arithmetic and arena reuse bugs out of
// the deep paths.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "gen/registry.hpp"
#include "io/blif.hpp"
#include "retime/stage_assign.hpp"
#include "t1/flow_engine.hpp"

namespace t1map {
namespace {

const std::vector<std::string>& deep_names() {
  static const std::vector<std::string> names = {
      "adder256",  // 500+ stage ripple chain
      "cordic32",  // ~30 chained conditional adders, 1000+ stages
      "log2_16",   // priority encode + digit recurrence squarers
  };
  return names;
}

/// Structural invariants every successful deep run must satisfy.
void check_invariants(const std::string& name, const Aig& aig,
                      const t1::EngineResult& r, int num_phases) {
  ASSERT_TRUE(r.ok()) << name << ": " << r.diagnostics.to_string();
  ASSERT_TRUE(r.has_materialized) << name;
  const retime::StageAssignment& sa = r.materialized.stages;

  // Stage counts: positive, consistent with the reported cycle depth, and
  // at least the trivial lower bound of one stage per logic level is
  // impossible to check cheaply — but a deep circuit must stay deep.
  EXPECT_GT(sa.sigma_po, 0) << name;
  EXPECT_EQ(r.stats.num_stages, sa.sigma_po) << name;
  EXPECT_EQ(r.stats.depth_cycles,
            retime::ceil_div(sa.sigma_po, num_phases))
      << name;

  // `materialized.stages` aligns with the DFF-materialized netlist; the
  // pre-materialization assignment is deterministic, so recompute it and
  // check legality plus the closed-form DFF count against both the
  // materialized DFF cells and the reported stats.
  const retime::StageAssignment pre = retime::assign_stages(
      r.mapped, retime::StageParams{num_phases, /*optimize=*/true,
                                    /*max_sweeps=*/6});
  EXPECT_TRUE(retime::assignment_is_legal(r.mapped, pre)) << name;
  EXPECT_EQ(pre.sigma_po, sa.sigma_po) << name;
  const retime::DffCount closed = retime::count_dffs(r.mapped, pre);
  EXPECT_EQ(closed.total(), r.materialized.num_dffs) << name;
  EXPECT_EQ(r.stats.dffs,
            static_cast<long>(
                r.materialized.netlist.count_kind(sfq::CellKind::kDff)))
      << name;
  EXPECT_EQ(closed.total(), r.stats.dffs) << name;

  // Area accounting includes every cell of the materialized netlist.
  EXPECT_EQ(r.stats.area_jj, r.materialized.netlist.cell_area_jj_total())
      << name;

  // The source is preserved: PIs/POs survive mapping.
  EXPECT_EQ(r.materialized.netlist.num_pis(), aig.num_pis()) << name;
  EXPECT_EQ(r.materialized.netlist.num_pos(), aig.num_pos()) << name;
}

TEST(StressDeep, FullPipelineInvariantsPerCircuit) {
  t1::FlowEngine engine;  // default pipeline: map,t1,stage,dff,timing,sim
  for (const std::string& name : deep_names()) {
    const Aig aig = gen::make_named(name);
    t1::FlowParams params;
    params.num_phases = 4;
    params.use_t1 = true;
    params.verify_rounds = 2;
    const t1::EngineResult r = engine.run(aig, params);
    check_invariants(name, aig, r, params.num_phases);
    // Deep circuits must stay deep through the flow: the ripple/CORDIC
    // chains cannot be balanced below their sequential structure
    // (log2_16 ~145 stages, adder256 ~520, cordic32 ~1300).
    EXPECT_GE(r.materialized.stages.sigma_po, 100) << name;
  }
}

TEST(StressDeep, DeepChainsWithoutT1StayLegal) {
  // The nphi configuration (no T1 substitution) drives the plain
  // stage-assignment path through the same deep chains.
  t1::FlowEngine engine;
  const Aig aig = gen::make_named("adder256");
  t1::FlowParams params;
  params.num_phases = 6;
  params.use_t1 = false;
  params.verify_rounds = 2;
  const t1::EngineResult r = engine.run(aig, params);
  check_invariants("adder256/nphi6", aig, r, params.num_phases);
  EXPECT_EQ(r.stats.t1_cores, 0);
}

TEST(StressDeep, RunManyIsDeterministicAcrossThreadCounts) {
  std::vector<Aig> aigs;
  for (const std::string& name : deep_names()) {
    aigs.push_back(gen::make_named(name));
  }
  t1::FlowParams params;
  params.num_phases = 4;
  params.use_t1 = true;
  params.verify_rounds = 1;
  std::vector<t1::FlowJob> batch;
  for (const Aig& aig : aigs) batch.push_back({&aig, params, {}});

  t1::FlowEngine engine;
  const std::vector<t1::EngineResult> seq = engine.run_many(batch);
  engine.set_threads(4);
  const std::vector<t1::EngineResult> par = engine.run_many(batch);
  ASSERT_EQ(seq.size(), par.size());

  for (std::size_t i = 0; i < seq.size(); ++i) {
    const std::string& name = deep_names()[i];
    check_invariants(name, aigs[i], seq[i], params.num_phases);
    check_invariants(name, aigs[i], par[i], params.num_phases);

    // Bit-for-bit: identical stats and an identical exported netlist.
    EXPECT_EQ(seq[i].stats.area_jj, par[i].stats.area_jj) << name;
    EXPECT_EQ(seq[i].stats.dffs, par[i].stats.dffs) << name;
    EXPECT_EQ(seq[i].stats.num_stages, par[i].stats.num_stages) << name;
    EXPECT_EQ(seq[i].stats.t1_found, par[i].stats.t1_found) << name;
    EXPECT_EQ(seq[i].stats.t1_used, par[i].stats.t1_used) << name;
    std::ostringstream blif_seq;
    std::ostringstream blif_par;
    io::write_blif(blif_seq, seq[i].materialized.netlist, "m");
    io::write_blif(blif_par, par[i].materialized.netlist, "m");
    EXPECT_EQ(blif_seq.str(), blif_par.str()) << name;
  }
}

}  // namespace
}  // namespace t1map
