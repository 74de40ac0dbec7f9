// Retiming tests: stage assignment legality and optimality on hand-checked
// netlists, T1 constraints (paper eqs. 3-5), DFF counting vs. the closed
// form, materialization consistency, the independent timing validator, and
// digests that pin the exact stages and DFF netlists on real circuits.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "gen/registry.hpp"
#include "pin_digest.hpp"
#include "retime/dff_insert.hpp"
#include "retime/stage_assign.hpp"
#include "retime/timing_check.hpp"
#include "sfq/netlist.hpp"
#include "t1/flow_engine.hpp"

namespace t1map::retime {
namespace {

using sfq::CellKind;
using sfq::Netlist;

/// a->x->y->po chain plus a short path a->z->po2 to force balancing.
Netlist make_unbalanced() {
  Netlist n;
  const auto a = n.add_pi();
  const auto b = n.add_pi();
  const auto x = n.add_cell(CellKind::kAnd2, {a, b});
  const auto y = n.add_cell(CellKind::kNot, {x});
  const auto z = n.add_cell(CellKind::kOr2, {y, a});
  n.add_po(z);
  return n;
}

TEST(StageAssign, SinglePhaseIsFullPathBalancing) {
  const Netlist n = make_unbalanced();
  const StageAssignment sa =
      assign_stages(n, StageParams{1, /*optimize=*/false});
  EXPECT_TRUE(assignment_is_legal(n, sa));
  // Nodes: a,b at 0; AND2 at 1; NOT at 2; OR2 at 3; sigma_po = 4.
  EXPECT_EQ(sa.sigma_po, 4);
  // Edge a->OR2 spans 3 stages -> 2 DFFs; b/a->AND2 0; x->NOT 0; NOT->OR 0;
  // OR->po 0.  With 1 phase every gap-1 edge is free, a's chain needs
  // max(ceil(3/1)-1, ceil(1/1)-1) = 2.
  const DffCount count = count_dffs(n, sa);
  EXPECT_EQ(count.total(), 2);
}

TEST(StageAssign, FourPhasesRemoveShortChainDffs) {
  const Netlist n = make_unbalanced();
  const StageAssignment sa =
      assign_stages(n, StageParams{4, /*optimize=*/false});
  EXPECT_TRUE(assignment_is_legal(n, sa));
  // All gaps <= 4: zero DFFs.
  EXPECT_EQ(count_dffs(n, sa).total(), 0);
}

TEST(StageAssign, OptimizeReducesDffs) {
  // Multiphase slack: gate g (ASAP stage 1) feeds a consumer at stage 10.
  // With n=4, ASAP costs ceil(9/4)-1 = 2 chain DFFs; moving g to stage 2-4
  // keeps the PI edge free and shrinks the chain to 1.
  Netlist n;
  const auto a = n.add_pi();
  const auto g = n.add_cell(CellKind::kNot, {a});
  std::uint32_t t = a;
  for (int i = 0; i < 9; ++i) t = n.add_cell(CellKind::kNot, {t});
  const auto w = n.add_cell(CellKind::kAnd2, {g, t});
  n.add_po(w);

  const StageAssignment asap = assign_stages(n, StageParams{4, false});
  EXPECT_EQ(count_dffs(n, asap).total(), 2);
  const StageAssignment opt = assign_stages(n, StageParams{4, true});
  EXPECT_TRUE(assignment_is_legal(n, opt));
  EXPECT_EQ(count_dffs(n, opt).total(), 1);
  // Depth must be preserved by optimization.
  EXPECT_EQ(opt.sigma_po, asap.sigma_po);
}

TEST(StageAssign, SharedChainCountsOnceMaxOverFanouts) {
  // One driver, consumers at stages 2 and 5 (1 phase): chain of max(1,4)=4.
  Netlist n;
  const auto a = n.add_pi();
  const auto b = n.add_pi();
  const auto x = n.add_cell(CellKind::kAnd2, {a, b});
  auto c1 = n.add_cell(CellKind::kNot, {x});
  const auto deep1 = n.add_cell(CellKind::kNot, {c1});
  const auto deep2 = n.add_cell(CellKind::kNot, {deep1});
  const auto deep3 = n.add_cell(CellKind::kNot, {deep2});
  const auto join = n.add_cell(CellKind::kAnd2, {x, deep3});
  n.add_po(join);

  const StageAssignment sa = assign_stages(n, StageParams{1, false});
  // x at 1; NOT chain 2,3,4,5; join at 6.  x's consumers: c1 (2) and join
  // (6): shared chain = ceil(5/1)-1 = 4 DFFs.  Other edges adjacent.
  const DffCount count = count_dffs(n, sa);
  EXPECT_EQ(count.regular, 4);
}

TEST(T1Constraints, MinStageMatchesEq3) {
  // σ_T1 >= max(σ(i1)+3, σ(i2)+2, σ(i3)+1), fanins sorted ascending.
  EXPECT_EQ(t1_min_stage({0, 0, 0}), 3);
  EXPECT_EQ(t1_min_stage({0, 1, 2}), 3);
  EXPECT_EQ(t1_min_stage({5, 1, 3}), 6);  // sorted 1,3,5: max(4,5,6)
  EXPECT_EQ(t1_min_stage({1, 3, 5}), 6);  // order-insensitive
  EXPECT_EQ(t1_min_stage({4, 4, 4}), 7);  // 4+3
  EXPECT_EQ(t1_min_stage({0, 4, 4}), 6);  // max(0+3, 4+2, 4+1)
}

TEST(T1Constraints, ReleaseSolverDistinctWindow) {
  // Producers all at 0, T1 at 3, n=4: window [-1..2] -> releases {0,1,2}
  // with costs 0,1,1 -> 2 DFFs.
  const T1Releases r = solve_t1_releases({0, 0, 0}, 3, 4);
  EXPECT_EQ(r.dffs, 2);
  std::array<int, 3> rel = r.release;
  std::sort(rel.begin(), rel.end());
  EXPECT_EQ(rel[0], 0);
  EXPECT_EQ(rel[1], 1);
  EXPECT_EQ(rel[2], 2);
}

TEST(T1Constraints, ReleaseSolverFreeWhenStagesDistinct) {
  // Producers at 1,2,3, T1 at 4, n=4: direct releases are distinct: free.
  const T1Releases r = solve_t1_releases({1, 2, 3}, 4, 4);
  EXPECT_EQ(r.dffs, 0);
  EXPECT_EQ(r.release[0], 1);
  EXPECT_EQ(r.release[1], 2);
  EXPECT_EQ(r.release[2], 3);
}

TEST(T1Constraints, ReleaseSolverFarProducerUsesWindow) {
  // Producer far in the past must be re-released inside [σ-n, σ-1].
  const T1Releases r = solve_t1_releases({0, 10, 11}, 12, 4);
  EXPECT_GE(r.release[0], 12 - 4);
  EXPECT_LE(r.release[0], 11);
  // Chain from 0 to r0: ceil(r0/4) = 2 DFFs minimum.
  EXPECT_EQ(r.dffs, 2);
}

TEST(T1Constraints, InfeasibleThrows) {
  // σ_T1 = 2 violates eq. (3) for three stage-0 producers.
  EXPECT_THROW(solve_t1_releases({0, 0, 0}, 2, 4), ContractError);
}

TEST(T1Constraints, NetlistWithT1RequiresThreePhases) {
  Netlist n;
  const auto a = n.add_pi();
  const auto b = n.add_pi();
  const auto c = n.add_pi();
  const auto t1 = n.add_t1(a, b, c);
  n.add_po(n.add_t1_tap(t1, CellKind::kT1TapS));
  EXPECT_THROW(assign_stages(n, StageParams{2, false}), ContractError);
  const StageAssignment sa = assign_stages(n, StageParams{4, false});
  EXPECT_TRUE(assignment_is_legal(n, sa));
  EXPECT_GE(sa.sigma[t1], 3);  // eq. (3) with PIs at 0
}

TEST(StageSentinels, UnplacedDriverContributesNoChainDffs) {
  // kNoStage (INT_MIN) leaking into `max_sv - su` used to be signed
  // overflow; the guard must treat an unplaced driver as chainless.  This
  // test is part of the UBSan CI leg — the old arithmetic trips it.
  constexpr int kNoStage = std::numeric_limits<int>::min();
  Netlist n;
  const auto a = n.add_pi();
  const auto x = n.add_cell(CellKind::kNot, {a});
  const auto y = n.add_cell(CellKind::kNot, {x});
  n.add_po(y);

  StageAssignment sa;
  sa.num_phases = 2;
  sa.sigma = {0, kNoStage, 5};  // x unplaced, y far away
  sa.sigma_po = 6;
  const DffCount count = count_dffs(n, sa);
  // x's chain (unplaced driver) contributes nothing; a's chain skips the
  // unplaced consumer x and costs nothing either.
  EXPECT_EQ(count.regular, 0);
  EXPECT_EQ(count.t1, 0);

  // Unplaced consumers must not stretch a placed driver's chain.
  sa.sigma = {0, 1, kNoStage};
  sa.sigma_po = 2;
  EXPECT_EQ(count_dffs(n, sa).regular, 0);
}

TEST(StageSentinels, T1MinStageMapsSentinelsAndRejectsOverflow) {
  constexpr int kNoStage = std::numeric_limits<int>::min();
  // Sentinels participate as stage 0 (constants still occupy a slot).
  EXPECT_EQ(t1_min_stage({kNoStage, kNoStage, kNoStage}), 3);
  EXPECT_EQ(t1_min_stage({kNoStage, 5, kNoStage}), 6);  // sorted 0,0,5
  // Near-sentinel garbage (not exactly kNoStage) must fail loudly instead
  // of overflowing the +3/+2/+1 offsets.
  EXPECT_THROW(t1_min_stage({kNoStage + 1, 0, 0}), ContractError);
  EXPECT_THROW(t1_min_stage({0, 0, std::numeric_limits<int>::max()}),
               ContractError);
}

TEST(StageSentinels, ReleaseSolverRejectsOutOfRangeStages) {
  constexpr int kNoStage = std::numeric_limits<int>::min();
  // The release window is sigma_t1 - n: sentinel-laden inputs would
  // underflow it.  Callers map kNoStage to 0 first; raw sentinels throw.
  EXPECT_THROW(solve_t1_releases({0, 0, 0}, kNoStage, 4), ContractError);
  EXPECT_THROW(solve_t1_releases({kNoStage, 0, 0}, 5, 4), ContractError);
}

TEST(Materialize, DffCountMatchesClosedForm) {
  const Netlist n = make_unbalanced();
  for (const int phases : {1, 2, 4}) {
    const StageAssignment sa = assign_stages(n, StageParams{phases, true});
    const MaterializeResult mat = insert_dffs(n, sa);
    EXPECT_EQ(mat.num_dffs, count_dffs(n, sa).total()) << phases;
    EXPECT_EQ(mat.netlist.count_kind(CellKind::kDff),
              static_cast<std::uint32_t>(mat.num_dffs));
    const TimingReport report = check_timing(mat.netlist, mat.stages);
    EXPECT_TRUE(report.ok) << (report.violations.empty()
                                   ? ""
                                   : report.violations[0]);
  }
}

TEST(Materialize, T1EdgesGetDistinctArrivals) {
  Netlist n;
  const auto a = n.add_pi();
  const auto b = n.add_pi();
  const auto c = n.add_pi();
  const auto t1 = n.add_t1(a, b, c);
  const auto s = n.add_t1_tap(t1, CellKind::kT1TapS);
  n.add_po(s);

  const StageAssignment sa = assign_stages(n, StageParams{4, false});
  const MaterializeResult mat = insert_dffs(n, sa);
  const TimingReport report = check_timing(mat.netlist, mat.stages);
  EXPECT_TRUE(report.ok) << (report.violations.empty()
                                 ? ""
                                 : report.violations[0]);
  // All three producers at 0: exactly 2 extra DFFs (releases 0,1,2).
  EXPECT_EQ(mat.num_dffs, 2);
}

TEST(TimingCheck, CatchesViolations) {
  Netlist n;
  const auto a = n.add_pi();
  const auto x = n.add_cell(CellKind::kNot, {a});
  n.add_po(x);
  StageAssignment sa;
  sa.num_phases = 2;
  sa.sigma = {0, 0};  // NOT at stage 0: illegal (gap 0)
  sa.sigma_po = 1;
  EXPECT_FALSE(check_timing(n, sa).ok);

  sa.sigma = {0, 1};
  sa.sigma_po = 2;
  EXPECT_TRUE(check_timing(n, sa).ok);

  // Gap beyond one cycle without a DFF.
  sa.sigma = {0, 5};
  sa.sigma_po = 6;
  EXPECT_FALSE(check_timing(n, sa).ok);
}

TEST(TimingCheck, CatchesT1ArrivalCollision) {
  Netlist n;
  const auto a = n.add_pi();
  const auto b = n.add_pi();
  const auto na = n.add_cell(CellKind::kNot, {a});
  const auto nb = n.add_cell(CellKind::kNot, {b});
  const auto nc = n.add_cell(CellKind::kNot, {na});
  const auto t1 = n.add_t1(na, nb, nc);
  n.add_po(n.add_t1_tap(t1, CellKind::kT1TapS));

  StageAssignment sa;
  sa.num_phases = 4;
  sa.sigma.assign(n.num_nodes(), 0);
  sa.sigma[na] = 1;
  sa.sigma[nb] = 1;  // collides with na
  sa.sigma[nc] = 2;
  sa.sigma[t1] = 4;
  sa.sigma[t1 + 1] = 4;  // tap
  sa.sigma_po = 5;
  EXPECT_FALSE(check_timing(n, sa).ok);

  sa.sigma[nb] = 3;  // distinct now
  EXPECT_TRUE(check_timing(n, sa).ok);
}

TEST(Materialize, FunctionPreserved) {
  const Netlist n = make_unbalanced();
  const StageAssignment sa = assign_stages(n, StageParams{1, true});
  const MaterializeResult mat = insert_dffs(n, sa);
  // DFFs are identity: simulation results must match the original netlist.
  const std::uint64_t words[] = {0xF0F0F0F0F0F0F0F0ull,
                                 0xCCCCCCCCCCCCCCCCull};
  EXPECT_EQ(n.simulate(words), mat.netlist.simulate(words));
}

TEST(Depth, CyclesIsCeilStagesOverPhases) {
  StageAssignment sa;
  sa.num_phases = 4;
  sa.sigma_po = 129;
  EXPECT_EQ(sa.depth_cycles(), 33);
  sa.sigma_po = 128;
  EXPECT_EQ(sa.depth_cycles(), 32);
  sa.num_phases = 1;
  EXPECT_EQ(sa.depth_cycles(), 128);
}

TEST(T1Constraints, ReleaseCostShiftsPastTheWindow) {
  // A producer more than n stages before the core reaches every window slot,
  // and one more cycle of distance adds exactly one DFF to every slot.  So
  // folding each slack d_j = sigma_t1 - producer_j into (n, 2n] changes the
  // optimal cost by the constant sum of floor((d_j - n - 1) / n) and keeps
  // the chosen releases; infeasible triples stay infeasible.
  for (int n = 3; n <= 8; ++n) {
    const int max_d = 3 * n + 2;
    const int sigma_t1 = 4 * n;
    const auto fold = [n](int d) { return d > n ? (d - n - 1) / n : 0; };
    for (int d0 = 1; d0 <= max_d; ++d0) {
      for (int d1 = 1; d1 <= max_d; ++d1) {
        for (int d2 = 1; d2 <= max_d; ++d2) {
          const std::array<int, 3> d{d0, d1, d2};
          std::array<int, 3> full{}, folded{};
          long offset = 0;
          for (int j = 0; j < 3; ++j) {
            full[j] = sigma_t1 - d[j];
            folded[j] = sigma_t1 - (d[j] - n * fold(d[j]));
            offset += fold(d[j]);
          }
          bool full_ok = true, folded_ok = true;
          T1Releases a{}, b{};
          try {
            a = solve_t1_releases(full, sigma_t1, n);
          } catch (const ContractError&) {
            full_ok = false;
          }
          try {
            b = solve_t1_releases(folded, sigma_t1, n);
          } catch (const ContractError&) {
            folded_ok = false;
          }
          ASSERT_EQ(full_ok, folded_ok)
              << n << ": " << d0 << "," << d1 << "," << d2;
          if (!full_ok) continue;
          ASSERT_EQ(a.dffs, b.dffs + offset)
              << n << ": " << d0 << "," << d1 << "," << d2;
          ASSERT_EQ(a.release, b.release)
              << n << ": " << d0 << "," << d1 << "," << d2;
        }
      }
    }
  }
}

/// Digests of `assign_stages` (sigma, sigma_po) and of `insert_dffs` (every
/// node's kind, fanins and origin, the POs, the stage vector, node_map and
/// num_dffs) on one mapped netlist, folded into `stages` and `dffs`.
void digest_retime(const Netlist& mapped, int phases, PinDigest& stages,
                   PinDigest& dffs, const std::string& label) {
  const StageAssignment sa = assign_stages(mapped, StageParams{phases, true});
  ASSERT_TRUE(assignment_is_legal(mapped, sa)) << label;
  stages.add(sa.num_phases);
  stages.add(sa.sigma_po);
  stages.add(static_cast<std::int64_t>(sa.sigma.size()));
  for (const int s : sa.sigma) stages.add(s);

  const MaterializeResult mat = insert_dffs(mapped, sa);
  EXPECT_EQ(mat.num_dffs, count_dffs(mapped, sa).total()) << label;
  const Netlist& out = mat.netlist;
  dffs.add(out.num_nodes());
  for (std::uint32_t v = 0; v < out.num_nodes(); ++v) {
    dffs.add(static_cast<std::int64_t>(out.kind(v)));
    dffs.add(static_cast<std::int64_t>(out.fanins(v).size()));
    for (const std::uint32_t u : out.fanins(v)) dffs.add(u);
    dffs.add(out.origin(v));
  }
  dffs.add(out.num_pos());
  for (const auto& po : out.pos()) dffs.add(po.driver);
  dffs.add(mat.stages.num_phases);
  dffs.add(mat.stages.sigma_po);
  dffs.add(static_cast<std::int64_t>(mat.stages.sigma.size()));
  for (const int s : mat.stages.sigma) dffs.add(s);
  dffs.add(static_cast<std::int64_t>(mat.node_map.size()));
  for (const std::uint32_t m : mat.node_map) dffs.add(m);
  dffs.add(mat.num_dffs);
}

/// The mapped (and, with `use_t1`, T1-rewritten) netlist the flow's stage
/// pass sees for this configuration.
Netlist mapped_netlist(const std::string& gen, int phases, bool use_t1) {
  t1::FlowEngine engine;
  engine.set_incremental(false);
  t1::FlowParams params;
  params.num_phases = phases;
  params.use_t1 = use_t1;
  params.verify_rounds = 0;
  t1::EngineResult r = engine.run(gen::make_named(gen), params);
  EXPECT_TRUE(r.ok()) << gen << ": " << r.diagnostics.to_string();
  return std::move(r.mapped);
}

struct PinnedRow {
  const char* circuits;  // a Table-I name, or "fuzz" for the fuzz set
  int phases;
  bool use_t1;
  std::uint64_t stages;
  std::uint64_t dffs;
};

TEST(Retime, OutputsArePinned) {
  // Captured from the first sweep, which re-checked legality and rescanned
  // consumer lists per candidate.  Any change to a stage, a DFF or a
  // netlist bit of the retime layer shows up here, even when the counts the
  // goldens pin stay equal.  The fuzz rows fold 50 random circuits each.  A
  // failure prints the row as it is now.
  // clang-format off
  static const PinnedRow kRows[] = {
      // circuits   phi t1     stages                 dffs
      {"adder",      1, false, 0x010748fda75fa5acull, 0x80d1a169d9d0de44ull},
      {"adder",      4, false, 0x6e8ea4125ff5b14bull, 0xd14f7179a906d5e2ull},
      {"adder",      4, true,  0x44207f04ae0af672ull, 0xb37dfe680d303a38ull},
      {"c7552",      1, false, 0x701b46f5964b61b1ull, 0xd764850ea2aa4165ull},
      {"c7552",      4, false, 0x4b263e5e0119e866ull, 0x690b1d3459695f11ull},
      {"c7552",      4, true,  0xf2cf8101742e7671ull, 0x6e70aebe0ec43b11ull},
      {"c6288",      1, false, 0x0b432b8dae52b548ull, 0xd3eb1fbb10f4e104ull},
      {"c6288",      4, false, 0x0c02aa57d65ec429ull, 0xe8988b14fabd101cull},
      {"c6288",      4, true,  0x3218a6e7a010154aull, 0xd0bfae55d1a14014ull},
      {"sin",        1, false, 0x888af91fec48f2e0ull, 0xe837250c4c6ff67full},
      {"sin",        4, false, 0x7f147120b8be9934ull, 0x7536d1fb0e6afff7ull},
      {"sin",        4, true,  0xc518108067b8ac2eull, 0xfc1ae592f0713fe8ull},
      {"voter",      1, false, 0xdd79358c21b1fb79ull, 0xeebd410a8ecc32f0ull},
      {"voter",      4, false, 0x8919c836fd640c80ull, 0x892a857abb3c24d5ull},
      {"voter",      4, true,  0x52a129a57db2f133ull, 0xa13d14993ff3fc9full},
      {"square",     1, false, 0x0ed2f6c95d471c0full, 0xd109ea3e141f8f3full},
      {"square",     4, false, 0x056ad24fecadaaa8ull, 0x7d53910681c20f64ull},
      {"square",     4, true,  0x5844a8a472470cc6ull, 0xa1426bf056e27494ull},
      {"multiplier", 1, false, 0x2c6d5be1af14bd22ull, 0x84be153fbeb7d772ull},
      {"multiplier", 4, false, 0x046d06c6207184e6ull, 0x451085bf279f9cb2ull},
      {"multiplier", 4, true,  0xe58be1b30fb7ecd3ull, 0x4b0af194e54fd9aaull},
      {"log2",       1, false, 0x1464eed8a4b4e92full, 0xd16984cedc1ad8f8ull},
      {"log2",       4, false, 0x8aefd40b0a915594ull, 0x0b473ada797d5511ull},
      {"log2",       4, true,  0x263c8be13543e186ull, 0x4acf6e82ec2e33d2ull},
      {"fuzz",       1, false, 0x2e0037a95699856dull, 0xe305bbae561ee98dull},
      {"fuzz",       3, false, 0x9aedf783a6ac28b1ull, 0xa07cd9a5e888381cull},
      {"fuzz",       3, true,  0x60950ddef2a55a17ull, 0x3512f64063c4028aull},
      {"fuzz",       4, false, 0xca8c047da96d9656ull, 0xf0bf9d4369037ac5ull},
      {"fuzz",       4, true,  0x645b5dedd13e81ffull, 0xb7f5b2466a22db99ull},
      {"fuzz",       5, false, 0x06a52cc54c0d1df7ull, 0x2a6fdcfdc324dc66ull},
      {"fuzz",       5, true,  0x8e6aac7803e4643aull, 0x62e1d94d3d6001c3ull},
      {"fuzz",       7, false, 0xd221268ad73cca93ull, 0xbe20eb3bc893a8faull},
      {"fuzz",       7, true,  0x446b4478f422b1d6ull, 0xb28833ddc5cd0c83ull},
  };
  // clang-format on
  std::vector<std::string> fuzz;
  for (int i = 0; i < 50; ++i) {
    fuzz.push_back("fuzz" + std::to_string(40 + 9 * i));
  }

  for (const PinnedRow& row : kRows) {
    const std::string name = row.circuits;
    const std::vector<std::string> circuits =
        name == "fuzz" ? fuzz : std::vector<std::string>{name};
    PinDigest stages, dffs;
    for (const std::string& c : circuits) {
      const std::string label =
          c + " " + std::to_string(row.phases) + (row.use_t1 ? "t1" : "");
      digest_retime(mapped_netlist(c, row.phases, row.use_t1), row.phases,
                    stages, dffs, label);
    }
    char now[128];
    std::snprintf(now, sizeof now,
                  "{\"%s\", %d, %s, 0x%016llxull, 0x%016llxull},",
                  row.circuits, row.phases, row.use_t1 ? "true" : "false",
                  static_cast<unsigned long long>(stages.h),
                  static_cast<unsigned long long>(dffs.h));
    EXPECT_EQ(stages.h, row.stages) << now;
    EXPECT_EQ(dffs.h, row.dffs) << now;
  }
}

}  // namespace
}  // namespace t1map::retime
