// T1 detection / rewrite tests (paper §II-A) and exact ILP phase assignment
// (§II-B) cross-checked against the scalable heuristic.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "fuzz/random_aig.hpp"
#include "gen/registry.hpp"
#include "pin_digest.hpp"
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

/// Folds `found`, `used` and every accepted candidate (leaves, polarity,
/// matches in order, MFFC and gain) into `d`.
void digest_detect(const DetectResult& det, PinDigest& d) {
  d.add(det.found);
  d.add(det.used);
  d.add(static_cast<std::int64_t>(det.accepted.size()));
  for (const T1Candidate& cand : det.accepted) {
    for (const std::uint32_t l : cand.leaves) d.add(l);
    d.add(cand.input_polarity);
    d.add(static_cast<std::int64_t>(cand.matches.size()));
    for (const T1Match& m : cand.matches) {
      d.add(m.node);
      d.add(static_cast<std::int64_t>(m.output));
    }
    d.add(static_cast<std::int64_t>(cand.mffc.size()));
    for (const std::uint32_t v : cand.mffc) d.add(v);
    d.add(cand.gain);
  }
}

struct PinnedDetect {
  const char* circuits;  // a Table-I name, or "fuzz" for the fuzz set
  bool input_negation;
  long min_gain;
  std::uint64_t digest;
};

TEST(Detect, ResultIsPinned) {
  // Captured from the detector that sorted every match group.  Detection
  // runs on the default mapping of the Table-I set and of 40 random
  // circuits, all calls sharing one workspace and scratch as the flow's
  // do.  A failure prints the row as it is now.
  // clang-format off
  static const PinnedDetect kRows[] = {
      // circuits   negation min_gain digest
      {"adder",      true,   1, 0x64040b01c8f4f104ull},
      {"adder",      true,  10, 0x64040b01c8f4f104ull},
      {"adder",      false,  1, 0x64040b01c8f4f104ull},
      {"adder",      false, 10, 0x64040b01c8f4f104ull},
      {"c7552",      true,   1, 0xe52011b057986110ull},
      {"c7552",      true,  10, 0xebafd08ff9db9fb4ull},
      {"c7552",      false,  1, 0x82aa746020aa9224ull},
      {"c7552",      false, 10, 0xebafd08ff9db9fb4ull},
      {"c6288",      true,   1, 0x94b38a7861bb60fcull},
      {"c6288",      true,  10, 0x09f2f9517303d4f8ull},
      {"c6288",      false,  1, 0x3b7c72f7d1e50fa6ull},
      {"c6288",      false, 10, 0x470d79a48ef15a12ull},
      {"sin",        true,   1, 0x65487e483cbdbc8full},
      {"sin",        true,  10, 0xe70be3d602735683ull},
      {"sin",        false,  1, 0x455c8a2e2cb7f15eull},
      {"sin",        false, 10, 0x5fae5bf508d2ba8cull},
      {"voter",      true,   1, 0x100b9f224508791eull},
      {"voter",      true,  10, 0xae82010d1d013406ull},
      {"voter",      false,  1, 0x2e3277ec1d327723ull},
      {"voter",      false, 10, 0x3de2ea28612a5ff0ull},
      {"square",     true,   1, 0xc4a10e4d1738c19aull},
      {"square",     true,  10, 0x3a664d786217d836ull},
      {"square",     false,  1, 0x2197184f819bceb5ull},
      {"square",     false, 10, 0x90a64c086d80498full},
      {"multiplier", true,   1, 0xfa34e2d64a5598ddull},
      {"multiplier", true,  10, 0x959fd5b25502bb3eull},
      {"multiplier", false,  1, 0xf8e6bc33144c2b51ull},
      {"multiplier", false, 10, 0xba8132538286dfdaull},
      {"log2",       true,   1, 0xe2be4dc8f1aaeb02ull},
      {"log2",       true,  10, 0x71af54f5e7b9516aull},
      {"log2",       false,  1, 0xd5ead7f54982b95full},
      {"log2",       false, 10, 0xcc47fc0986e5212full},
      {"fuzz",       true,   1, 0xd44f9e965bbd3f24ull},
      {"fuzz",       true,  10, 0xfac3fcbb6e14520full},
      {"fuzz",       false,  1, 0x3ccf2c2581341502ull},
      {"fuzz",       false, 10, 0x91023a9d9b204547ull},
  };
  // clang-format on
  std::vector<std::string> fuzz;
  for (int i = 0; i < 40; ++i) {
    fuzz.push_back("fuzz" + std::to_string(30 + 11 * i));
  }

  // Each circuit is mapped once, on first use.
  std::map<std::string, Netlist> mapped;
  const auto mapping = [&mapped](const std::string& c) -> const Netlist& {
    auto it = mapped.find(c);
    if (it == mapped.end()) {
      it = mapped.emplace(c, sfq::map_to_sfq(gen::make_named(c))).first;
    }
    return it->second;
  };

  CutWorkspace workspace;
  DetectScratch scratch;
  for (const PinnedDetect& row : kRows) {
    const std::string name = row.circuits;
    std::vector<std::string> circuits{name};
    if (name == "fuzz") circuits = fuzz;
    DetectParams params;
    params.allow_input_negation = row.input_negation;
    params.min_gain = row.min_gain;
    PinDigest d;
    for (const std::string& c : circuits) {
      digest_detect(detect_t1(mapping(c), params, &workspace, &scratch), d);
    }
    char now[128];
    std::snprintf(now, sizeof now, "{\"%s\", %s, %ld, 0x%016llxull},",
                  row.circuits, row.input_negation ? "true" : "false",
                  row.min_gain, static_cast<unsigned long long>(d.h));
    EXPECT_EQ(d.h, row.digest) << now;
  }
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
