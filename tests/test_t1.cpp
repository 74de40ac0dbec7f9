// T1 detection / rewrite tests (paper §II-A) and exact ILP phase assignment
// (§II-B) cross-checked against the scalable heuristic.

#include <gtest/gtest.h>

#include "aig/aig.hpp"
#include "fuzz/random_aig.hpp"
#include "retime/dff_insert.hpp"
#include "retime/timing_check.hpp"
#include "sfq/mapper.hpp"
#include "sfq/netlist_sim.hpp"
#include "t1/flow_engine.hpp"
#include "t1/phase_ilp.hpp"
#include "t1/t1_detect.hpp"
#include "t1/t1_rewrite.hpp"

namespace t1map::t1 {
namespace {

using sfq::CellKind;
using sfq::Netlist;

/// XOR3 + MAJ3 over shared PIs — the canonical full-adder T1 group.
Netlist make_fa_netlist() {
  Netlist n;
  const auto a = n.add_pi("a");
  const auto b = n.add_pi("b");
  const auto c = n.add_pi("c");
  const auto sum = n.add_cell(CellKind::kXor3, {a, b, c});
  const auto carry = n.add_cell(CellKind::kMaj3, {a, b, c});
  n.add_po(sum, "s");
  n.add_po(carry, "co");
  return n;
}

TEST(Detect, FindsFullAdderGroup) {
  const Netlist n = make_fa_netlist();
  const DetectResult det = detect_t1(n);
  EXPECT_EQ(det.found, 1);
  EXPECT_EQ(det.used, 1);
  ASSERT_EQ(det.accepted.size(), 1u);
  const T1Candidate& cand = det.accepted[0];
  EXPECT_EQ(cand.matches.size(), 2u);
  EXPECT_EQ(cand.input_polarity, 0);
  // MFFC: the two matched roots.
  EXPECT_EQ(cand.mffc.size(), 2u);
  // Gain: XOR3 + MAJ3 - T1 = 36 + 36 - 29 = 43.
  EXPECT_EQ(cand.gain, 43);
}

TEST(Detect, MultiLevelConeIsAbsorbed) {
  // Build the FA from 2-input cells: XOR2(XOR2(a,b),c) and the AND/OR
  // carry; the whole cone lands in the MFFC.
  Netlist n;
  const auto a = n.add_pi();
  const auto b = n.add_pi();
  const auto c = n.add_pi();
  const auto axb = n.add_cell(CellKind::kXor2, {a, b});
  const auto sum = n.add_cell(CellKind::kXor2, {axb, c});
  const auto ab = n.add_cell(CellKind::kAnd2, {a, b});
  const auto cand_ = n.add_cell(CellKind::kAnd2, {axb, c});
  const auto carry = n.add_cell(CellKind::kOr2, {ab, cand_});
  n.add_po(sum);
  n.add_po(carry);

  const DetectResult det = detect_t1(n);
  ASSERT_GE(det.used, 1);
  const T1Candidate& cand = det.accepted[0];
  // axb is shared between sum and carry cones and dies with both roots.
  EXPECT_GE(cand.mffc.size(), 4u);
  EXPECT_GT(cand.gain, 0);
}

TEST(Detect, InputPolarityMatching) {
  // XOR3(!a,b,c) = !XOR3 and MAJ3(!a,b,c): realizable with one input
  // inverter (polarity on leaf a).
  Netlist n;
  const auto a = n.add_pi();
  const auto b = n.add_pi();
  const auto c = n.add_pi();
  const auto na = n.add_cell(CellKind::kNot, {a});
  const auto sum = n.add_cell(CellKind::kXor3, {na, b, c});
  const auto carry = n.add_cell(CellKind::kMaj3, {na, b, c});
  n.add_po(sum);
  n.add_po(carry);

  const DetectResult det = detect_t1(n);
  EXPECT_GE(det.used, 1);
  // Either the group uses leaves {na,b,c} directly (polarity 0) or
  // {a,b,c} with a polarity bit; both are valid and profitable.
  EXPECT_GT(det.accepted[0].gain, 0);
}

TEST(Detect, NegatedOutputsUseStarredTaps) {
  // !MAJ3 and !OR3 alongside XOR3: C*/Q* plus inverters.
  Netlist n;
  const auto a = n.add_pi();
  const auto b = n.add_pi();
  const auto c = n.add_pi();
  const auto maj = n.add_cell(CellKind::kMaj3, {a, b, c});
  const auto nmaj = n.add_cell(CellKind::kNot, {maj});
  const auto sum = n.add_cell(CellKind::kXor3, {a, b, c});
  n.add_po(nmaj);
  n.add_po(sum);

  const DetectResult det = detect_t1(n);
  ASSERT_GE(det.used, 1);
  bool has_cn_or_c = false;
  for (const T1Match& m : det.accepted[0].matches) {
    if (m.output == T1Output::kCn || m.output == T1Output::kC) {
      has_cn_or_c = true;
    }
  }
  EXPECT_TRUE(has_cn_or_c);
}

TEST(Detect, SingleMatchIsNotAGroup) {
  // A lone XOR3 (no second function on the same leaves) must not be
  // replaced: the T1 core costs less than XOR3 alone would save... it
  // actually would (36 > 29), but the paper requires 2..5 cuts.
  Netlist n;
  const auto a = n.add_pi();
  const auto b = n.add_pi();
  const auto c = n.add_pi();
  n.add_po(n.add_cell(CellKind::kXor3, {a, b, c}));
  const DetectResult det = detect_t1(n);
  EXPECT_EQ(det.used, 0);
}

TEST(Detect, RespectsMinGain) {
  const Netlist n = make_fa_netlist();
  DetectParams params;
  params.min_gain = 1000;  // nothing is this profitable
  const DetectResult det = detect_t1(n, params);
  EXPECT_EQ(det.used, 0);
  EXPECT_EQ(det.found, 0);
}

TEST(Rewrite, FullAdderBecomesT1) {
  const Netlist n = make_fa_netlist();
  const DetectResult det = detect_t1(n);
  RewriteStats stats;
  const Netlist rewritten = apply_t1_rewrite(n, det.accepted, &stats);

  EXPECT_EQ(rewritten.num_t1(), 1u);
  EXPECT_EQ(stats.t1_cores, 1);
  EXPECT_EQ(stats.taps, 2);
  EXPECT_EQ(stats.removed_cells, 2);
  // Bookkeeping: realized cell-area delta >= claimed gain.
  EXPECT_GE(stats.cell_area_delta, det.accepted[0].gain);

  // Function preserved (exhaustive over 3 PIs).
  Aig ref;
  const Lit a = ref.create_pi();
  const Lit b = ref.create_pi();
  const Lit c = ref.create_pi();
  ref.create_po(ref.create_xor3(a, b, c));
  ref.create_po(ref.create_maj3(a, b, c));
  EXPECT_TRUE(sfq::random_equivalent(ref, rewritten));
}

TEST(Rewrite, ChainOfAddersEquivalence) {
  // 4-bit ripple adder mapped then rewritten: every FA becomes a T1 and the
  // function survives (exhaustive: 8 PIs -> random+structured patterns).
  Aig aig;
  std::vector<Lit> a, b;
  for (int i = 0; i < 4; ++i) a.push_back(aig.create_pi());
  for (int i = 0; i < 4; ++i) b.push_back(aig.create_pi());
  Lit carry = Aig::kConst0;
  for (int i = 0; i < 4; ++i) {
    aig.create_po(aig.create_xor3(a[i], b[i], carry));
    carry = aig.create_maj3(a[i], b[i], carry);
  }
  aig.create_po(carry);

  const Netlist mapped = sfq::map_to_sfq(aig);
  const DetectResult det = detect_t1(mapped);
  EXPECT_GE(det.used, 3);  // bits 1..3 are full adders
  const Netlist rewritten = apply_t1_rewrite(mapped, det.accepted);
  rewritten.check_well_formed();
  EXPECT_TRUE(sfq::random_equivalent(aig, rewritten, 32));
  EXPECT_EQ(rewritten.num_t1(), static_cast<std::uint32_t>(det.used));
}

TEST(Rewrite, OverlapResolutionIsDisjoint) {
  // Two FAs sharing PI leaves: both can be used (leaves are shared, MFFCs
  // disjoint).
  Netlist n;
  const auto a = n.add_pi();
  const auto b = n.add_pi();
  const auto c = n.add_pi();
  const auto d = n.add_pi();
  n.add_po(n.add_cell(CellKind::kXor3, {a, b, c}));
  n.add_po(n.add_cell(CellKind::kMaj3, {a, b, c}));
  n.add_po(n.add_cell(CellKind::kXor3, {a, b, d}));
  n.add_po(n.add_cell(CellKind::kMaj3, {a, b, d}));
  const DetectResult det = detect_t1(n);
  EXPECT_EQ(det.used, 2);
  const Netlist rewritten = apply_t1_rewrite(n, det.accepted);
  EXPECT_EQ(rewritten.num_t1(), 2u);
}

TEST(Rewrite, SharedTapNeverFeedsOneT1Twice) {
  // Regression: on this random AIG an accepted group used, as two of its
  // leaves, two roots of an earlier group with one output kind.  Rewriting
  // maps both roots to one tap, and the T1 core threw "T1 data inputs must
  // be three distinct signals".
  fuzz::RandomAigOptions options;
  options.seed = 3891;
  options.num_pis = 16;
  options.num_pos = 12;
  options.num_ops = 291;
  const Aig aig = fuzz::random_aig(options);
  FlowEngine engine(Pipeline::default_flow(/*with_cec=*/true));
  const EngineResult r = engine.run(aig, FlowParams{});
  ASSERT_TRUE(r.ok()) << r.diagnostics.to_string();
  EXPECT_EQ(r.cec, "equivalent");
  EXPECT_GT(r.stats.t1_used, 0);
}

TEST(PhaseIlp, MatchesHeuristicOnSmallNets) {
  // The exact ILP objective must equal the closed-form count of its own
  // assignment and be <= the heuristic's count.
  Aig aig;
  std::vector<Lit> a, b;
  for (int i = 0; i < 3; ++i) a.push_back(aig.create_pi());
  for (int i = 0; i < 3; ++i) b.push_back(aig.create_pi());
  Lit carry = Aig::kConst0;
  for (int i = 0; i < 3; ++i) {
    aig.create_po(aig.create_xor3(a[i], b[i], carry));
    carry = aig.create_maj3(a[i], b[i], carry);
  }
  aig.create_po(carry);
  const Netlist mapped = sfq::map_to_sfq(aig);

  for (const int phases : {1, 2, 4}) {
    PhaseIlpParams params;
    params.num_phases = phases;
    const PhaseIlpResult ilp = assign_stages_ilp(mapped, params);
    ASSERT_TRUE(ilp.solved) << phases << " phases";
    EXPECT_EQ(retime::count_dffs(mapped, ilp.assignment).total(),
              ilp.objective_dffs)
        << phases;

    const retime::StageAssignment heur = retime::assign_stages(
        mapped, retime::StageParams{phases, true});
    EXPECT_LE(ilp.objective_dffs,
              retime::count_dffs(mapped, heur).total())
        << phases;
  }
}

TEST(PhaseIlp, T1NetlistExact) {
  // One T1 fed by staggered producers; ILP must satisfy eq. 3 and count the
  // same DFFs as the closed form.
  Netlist n;
  const auto a = n.add_pi();
  const auto b = n.add_pi();
  const auto c = n.add_pi();
  const auto na = n.add_cell(CellKind::kNot, {a});
  const auto t1 = n.add_t1(na, b, c);
  n.add_po(n.add_t1_tap(t1, CellKind::kT1TapS));
  n.add_po(n.add_t1_tap(t1, CellKind::kT1TapC));

  PhaseIlpParams params;
  params.num_phases = 4;
  const PhaseIlpResult ilp = assign_stages_ilp(n, params);
  ASSERT_TRUE(ilp.solved);
  EXPECT_GE(ilp.assignment.sigma[t1], 3);
  EXPECT_EQ(retime::count_dffs(n, ilp.assignment).total(),
            ilp.objective_dffs);

  // Materialization + independent timing check on the ILP assignment.
  const auto mat = retime::insert_dffs(n, ilp.assignment);
  EXPECT_TRUE(retime::check_timing(mat.netlist, mat.stages).ok);
}

}  // namespace
}  // namespace t1map::t1
