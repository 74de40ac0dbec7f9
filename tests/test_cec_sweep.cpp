// Contract of the CEC correspondence sweep (sat/cec.hpp):
//   * flow netlists verify through local truth-table proofs, with pinned
//     work counters;
//   * origins are hints, never trusted: a complemented output, a lying hint
//     or scrambled origins give the same verdict, lowest failing output and
//     counterexample as the origin-free miter, and a BLIF round trip (which
//     drops the origins) keeps the verdict;
//   * the conflict budget is one shared countdown that local proofs do not
//     touch, and budgeted verdicts are deterministic;
//   * CecTable1 (heavy): all 24 Table-I flows verify with no budget.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "aig/aig_sim.hpp"
#include "gen/registry.hpp"
#include "io/blif.hpp"
#include "sat/cec.hpp"
#include "sfq/netlist_sim.hpp"
#include "t1/flow_engine.hpp"

namespace t1map {
namespace {

using sat::CecResult;
using sfq::CellKind;
using sfq::Netlist;
constexpr std::uint32_t kKeep = 0xFFFFFFFFu;

t1::FlowParams config_params(int phases, bool use_t1) {
  t1::FlowParams params;
  params.num_phases = phases;
  params.use_t1 = use_t1;
  return params;
}

/// The materialized netlist of the default flow (no CEC pass).
Netlist flow_netlist(const Aig& aig,
                     const t1::FlowParams& params = config_params(4, true)) {
  t1::FlowEngine engine;
  const t1::EngineResult r = engine.run(aig, params);
  EXPECT_TRUE(r.ok()) << r.diagnostics.to_string();
  return r.materialized.netlist;
}

/// Node-by-node copy of `src`, with or without its origins, optionally
/// with node `swap` rebuilt as `swap_kind` (same arity).
Netlist copy_netlist(const Netlist& src, bool with_origins,
                     std::uint32_t swap = kKeep,
                     CellKind swap_kind = CellKind::kAnd2) {
  Netlist out;
  std::uint32_t pi_index = 0;
  for (std::uint32_t id = 0; id < src.num_nodes(); ++id) {
    const CellKind k = id == swap ? swap_kind : src.kind(id);
    const auto f = src.fanins(id);
    std::uint32_t copy;
    if (k == CellKind::kPi) {
      copy = out.add_pi(src.pi_name(pi_index++));
    } else if (k == CellKind::kConst0 || k == CellKind::kConst1) {
      copy = out.add_const(k == CellKind::kConst1);
    } else if (k == CellKind::kT1) {
      copy = out.add_t1(f[0], f[1], f[2]);
    } else if (sfq::cell_is_t1_tap(k)) {
      copy = out.add_t1_tap(f[0], k);
    } else {
      copy = out.add_cell(k, f);
    }
    EXPECT_EQ(copy, id);
    if (with_origins) out.set_origin(copy, src.origin(id));
  }
  for (const auto& po : src.pos()) out.add_po(po.driver, po.name);
  return out;
}

/// `ntk` with the listed outputs driven through an extra inverter (which
/// carries the complemented origin, as the mapper would record it).
Netlist complement_outputs(Netlist ntk,
                           const std::vector<std::uint32_t>& outputs) {
  for (const std::uint32_t i : outputs) {
    const std::uint32_t driver = ntk.pos()[i].driver;
    const std::uint32_t inv = ntk.add_cell(CellKind::kNot, {driver});
    ntk.set_origin(inv, lit_not(ntk.origin(driver)));
    ntk.set_po_driver(i, inv);
  }
  return ntk;
}

/// Replay-copy of `src` with the listed PO indices complemented.
/// Structural hashing replays identically, so node ids are preserved and
/// the two AIGs differ exactly on the flipped outputs.
Aig copy_with_flipped_pos(const Aig& src,
                          const std::vector<std::uint32_t>& flips) {
  Aig out;
  std::vector<Lit> node_lit(src.num_nodes(), 0);  // node 0 = const0
  std::uint32_t pi_index = 0;
  for (std::uint32_t id = 1; id < src.num_nodes(); ++id) {
    if (src.is_pi(id)) {
      node_lit[id] = out.create_pi(src.pi_name(pi_index++));
    } else {
      const Lit f0 = src.fanin0(id);
      const Lit f1 = src.fanin1(id);
      node_lit[id] = out.create_and(
          lit_notif(node_lit[lit_node(f0)], lit_is_complemented(f0)),
          lit_notif(node_lit[lit_node(f1)], lit_is_complemented(f1)));
    }
  }
  for (std::uint32_t i = 0; i < src.num_pos(); ++i) {
    const Lit po = src.po(i);
    Lit mapped = lit_notif(node_lit[lit_node(po)], lit_is_complemented(po));
    for (const std::uint32_t f : flips) {
      if (f == i) mapped = lit_notif(mapped, true);
    }
    out.create_po(mapped, src.po_name(i));
  }
  return out;
}

/// True when `cex` makes output `po` of `aig` and `ntk` differ.
bool distinguishes(const Aig& aig, const Netlist& ntk,
                   const std::vector<bool>& cex, std::int32_t po) {
  std::vector<std::uint64_t> words;
  for (const bool b : cex) words.push_back(b ? ~0ull : 0ull);
  const auto i = static_cast<std::size_t>(po);
  return ((simulate(aig, words)[i] ^ ntk.simulate(words)[i]) & 1u) != 0;
}

void expect_same_refutation(const CecResult& a, const CecResult& b) {
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.failing_output, b.failing_output);
  EXPECT_EQ(a.counterexample, b.counterexample);
}

TEST(CecContract, FlowNetlistsProveLocally) {
  const Aig aig = gen::make_named("mul8");
  const Netlist ntk = flow_netlist(aig);
  ASSERT_TRUE(ntk.has_origins());
  const CecResult r = sat::check_equivalence(aig, ntk);
  EXPECT_EQ(r.verdict, CecResult::Verdict::kEquivalent);
  EXPECT_EQ(r.failing_output, -1);
  // The T1 flow on mul8 issues no SAT query at all.
  EXPECT_EQ(r.cells_local, 195);
  EXPECT_EQ(r.cells_sat, 0);
  EXPECT_EQ(r.hints_refuted, 0);
  EXPECT_EQ(r.po_queries, 0);
  EXPECT_EQ(r.conflicts, 0);

  // sin10's wide reconvergence still sends a few cells to SAT; every hint
  // holds, so each query merges its cell.
  const Aig sin10 = gen::make_named("sin10");
  const CecResult s = sat::check_equivalence(sin10, flow_netlist(sin10));
  EXPECT_EQ(s.verdict, CecResult::Verdict::kEquivalent);
  EXPECT_EQ(s.cells_local, 612);
  EXPECT_EQ(s.cells_sat, 6);
  EXPECT_EQ(s.hints_refuted, 0);
  EXPECT_EQ(s.po_queries, 0);
  EXPECT_EQ(s.conflicts, 96);

  // An origin-free copy takes the output miter and agrees.
  const Aig small = gen::make_named("adder16");
  const CecResult plain = sat::check_equivalence(
      small, copy_netlist(flow_netlist(small), /*with_origins=*/false));
  EXPECT_EQ(plain.verdict, CecResult::Verdict::kEquivalent);
  EXPECT_EQ(plain.cells_local, 0);
  EXPECT_EQ(plain.po_queries, small.num_pos());
}

TEST(CecContract, CecPassReportsCounters) {
  const Aig aig = gen::make_named("mul8");
  t1::FlowEngine engine(t1::Pipeline::default_flow(/*with_cec=*/true));
  const t1::EngineResult r = engine.run(aig, config_params(4, true));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.cec, "equivalent");
  EXPECT_NE(r.diagnostics.to_string().find(
                "info [cec] 195 cells proved locally, 0 by SAT, 0 hints "
                "refuted, 0 PO queries, 0 conflicts"),
            std::string::npos)
      << r.diagnostics.to_string();
}

TEST(CecContract, ComplementedOutputIsRefutedLikeTheMiter) {
  const Aig aig = gen::make_named("adder16");
  const Netlist bad = complement_outputs(flow_netlist(aig), {5});
  const CecResult swept = sat::check_equivalence(aig, bad);
  ASSERT_EQ(swept.verdict, CecResult::Verdict::kNotEquivalent);
  EXPECT_EQ(swept.failing_output, 5);
  EXPECT_EQ(swept.po_queries, 1);  // every other output proved locally
  EXPECT_TRUE(distinguishes(aig, bad, swept.counterexample, 5));
  expect_same_refutation(
      swept, sat::check_equivalence(aig, copy_netlist(bad, false)));
}

TEST(CecContract, LyingHintGivesTheOriginFreeVerdict) {
  // Swap the kind of a mid-netlist two-input cell but keep its origin:
  // the hint now lies about the cell it labels.
  const Aig aig = gen::make_named("square12");
  const Netlist ntk = flow_netlist(aig);
  bool tried = false;
  for (std::uint32_t id = ntk.num_nodes() / 2; id < ntk.num_nodes(); ++id) {
    const CellKind k = ntk.kind(id);
    if (k != CellKind::kAnd2 && k != CellKind::kOr2) continue;
    const CellKind swapped = k == CellKind::kAnd2 ? CellKind::kOr2
                                                   : CellKind::kAnd2;
    const Netlist plain_copy = copy_netlist(ntk, false, id, swapped);
    // Simulation first: an unobservable swap would cost a full proof.
    if (!sfq::find_sim_mismatch(aig, plain_copy, 8, 1).has_value()) continue;
    tried = true;
    const Netlist lying = copy_netlist(ntk, true, id, swapped);
    const CecResult plain = sat::check_equivalence(aig, plain_copy);
    ASSERT_EQ(plain.verdict, CecResult::Verdict::kNotEquivalent);
    const CecResult swept = sat::check_equivalence(aig, lying);
    expect_same_refutation(swept, plain);
    EXPECT_GE(swept.hints_refuted, 1);
    EXPECT_TRUE(distinguishes(aig, lying, swept.counterexample,
                              swept.failing_output));
    break;
  }
  EXPECT_TRUE(tried) << "no observable two-input cell in the upper half";
}

TEST(CecContract, ScrambledOriginsStayEquivalent) {
  const Aig aig = gen::make_named("adder16");
  Netlist ntk = flow_netlist(aig);
  const std::uint32_t num_lits = 2 * aig.num_nodes();
  for (std::uint32_t id = 0; id < ntk.num_nodes(); ++id) {
    ntk.set_origin(id, (id * 7919u + 13u) % num_lits);
  }
  const CecResult r = sat::check_equivalence(aig, ntk);
  EXPECT_EQ(r.verdict, CecResult::Verdict::kEquivalent);
  EXPECT_GT(r.hints_refuted, 0);

  // Origins naming nodes the AIG does not have are ignored, not trusted.
  for (std::uint32_t id = 0; id < ntk.num_nodes(); ++id) {
    ntk.set_origin(id, num_lits + id);
  }
  EXPECT_EQ(sat::check_equivalence(aig, ntk).verdict,
            CecResult::Verdict::kEquivalent);
}

TEST(CecContract, BlifRoundTripKeepsTheVerdict) {
  const Aig aig = gen::make_named("adder16");
  const Netlist good = flow_netlist(aig);
  const Netlist bad = complement_outputs(good, {3, 11});
  for (const Netlist* ntk : {&good, &bad}) {
    std::ostringstream os;
    io::write_blif(os, *ntk, "m");
    const Aig back = io::read_blif_string(os.str());
    const CecResult swept = sat::check_equivalence(aig, *ntk);
    const CecResult round_trip = sat::check_equivalence(aig, back);
    EXPECT_EQ(swept.verdict, round_trip.verdict);
    EXPECT_EQ(swept.failing_output, round_trip.failing_output);
  }
}

TEST(CecContract, LowestFailingOutputAndCanonicalCounterexample) {
  const Aig aig = gen::make_named("mul8");
  // Flip POs 9 and 2: the verdict must blame the *lowest* differing output.
  const Aig flipped = copy_with_flipped_pos(aig, {2, 9});
  const CecResult aigs = sat::check_equivalence(aig, flipped);
  ASSERT_EQ(aigs.verdict, CecResult::Verdict::kNotEquivalent);
  EXPECT_EQ(aigs.failing_output, 2);
  ASSERT_EQ(aigs.counterexample.size(), aig.num_pis());

  const Netlist bad = complement_outputs(flow_netlist(aig), {9, 2});
  const CecResult swept = sat::check_equivalence(aig, bad);
  EXPECT_EQ(swept.failing_output, 2);
  EXPECT_TRUE(distinguishes(aig, bad, swept.counterexample, 2));
  expect_same_refutation(
      swept, sat::check_equivalence(aig, copy_netlist(bad, false)));

  // A reused solver carries learned clauses between checks; the result
  // must not depend on them.
  sat::Solver solver;
  for (int round = 0; round < 2; ++round) {
    expect_same_refutation(sat::check_equivalence(aig, bad, -1, solver),
                           swept);
  }
}

TEST(CecContract, ZeroBudgetProvesFlowNetlistsOnly) {
  const Aig aig = gen::make_named("mul8");
  const Netlist ntk = flow_netlist(aig);
  const CecResult swept = sat::check_equivalence(aig, ntk, 0);
  EXPECT_EQ(swept.verdict, CecResult::Verdict::kEquivalent);

  // Without origins no real proof fits a zero budget: the check reports
  // unknown and blames the same output every time.
  const Netlist plain = copy_netlist(ntk, false);
  const CecResult first = sat::check_equivalence(aig, plain, 0);
  EXPECT_EQ(first.verdict, CecResult::Verdict::kUnknown);
  EXPECT_GE(first.failing_output, 0);
  sat::Solver solver;
  const CecResult again = sat::check_equivalence(aig, plain, 0, solver);
  EXPECT_EQ(again.verdict, CecResult::Verdict::kUnknown);
  EXPECT_EQ(again.failing_output, first.failing_output);

  const CecResult aigs =
      sat::check_equivalence(aig, copy_with_flipped_pos(aig, {}), 0);
  EXPECT_EQ(aigs.verdict, CecResult::Verdict::kUnknown);
  EXPECT_GE(aigs.failing_output, 0);

  // A budget large enough for the whole proof reports equivalence and a
  // clean failing_output.
  const Aig small = gen::make_named("adder16");
  const CecResult roomy = sat::check_equivalence(
      small, copy_netlist(flow_netlist(small), false), 1 << 24);
  EXPECT_EQ(roomy.verdict, CecResult::Verdict::kEquivalent);
  EXPECT_EQ(roomy.failing_output, -1);
}

TEST(CecContract, IdenticalAtEveryThreadCount) {
  t1::FlowParams params = config_params(4, true);
  params.verify_rounds = 0;
  const std::vector<std::string> names = {"adder16", "comparator16",
                                          "voter25"};
  std::vector<Aig> aigs;
  for (const std::string& name : names) aigs.push_back(gen::make_named(name));
  std::vector<t1::FlowJob> jobs;
  for (const Aig& aig : aigs) jobs.push_back({&aig, params, {}});

  // One batch at 1 thread, then on 4 workers, where each job's CEC runs
  // beside the others.
  std::vector<std::string> first;
  for (const int threads : {1, 4}) {
    t1::FlowEngine engine(t1::Pipeline::default_flow(/*with_cec=*/true));
    engine.set_threads(threads);
    const std::vector<t1::EngineResult> results = engine.run_many(jobs);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const t1::EngineResult& r = results[i];
      ASSERT_TRUE(r.ok()) << names[i];
      EXPECT_EQ(r.cec, "equivalent") << names[i];
      const std::string diags = r.diagnostics.to_string();
      if (first.size() == i) first.push_back(diags);
      EXPECT_EQ(diags, first[i]) << names[i] << " at " << threads
                                 << " threads";
    }
  }
}

// The paper's experiment, proven: every Table-I circuit in all three
// configurations verifies with no conflict budget.
TEST(CecTable1, AllFlowsVerifyWithoutBudget) {
  for (const std::string& name : gen::table1_names()) {
    const Aig aig = gen::make_benchmark(name);
    for (const auto& [phases, use_t1] :
         {std::pair{1, false}, std::pair{4, false}, std::pair{4, true}}) {
      const Netlist ntk = flow_netlist(aig, config_params(phases, use_t1));
      const CecResult r = sat::check_equivalence(aig, ntk);
      EXPECT_EQ(r.verdict, CecResult::Verdict::kEquivalent)
          << name << " phases " << phases << " t1 " << use_t1;
    }
  }
}

}  // namespace
}  // namespace t1map
