// The pass memo: each of the map, t1 and stage passes reuses its whole
// previous result when its input and parameters match, else recomputes.
//   * per-node cone digests (the serve cache key's per-node array) are
//     insensitive to node renumbering, and a single-gate edit changes
//     exactly the edited node's transitive-fanout digests;
//   * a memo-warmed engine reproduces cold runs bit-for-bit across every
//     regression generator (plus cordic28) on random one-gate mutants; an
//     edited AIG misses the map slot, and t1 and stage reuse only when
//     the edit leaves their input netlist the same node for node;
//   * exact re-runs reuse all three passes, a phase change reuses map and
//     t1 only, and a port rename misses the map slot;
//   * every field of the map, t1 and stage parameters is part of its pass's
//     key: changing one makes that pass recompute.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "aig/aig_digest.hpp"
#include "fuzz/mutate.hpp"
#include "gen/registry.hpp"
#include "io/blif.hpp"
#include "sfq/mapper.hpp"
#include "sfq/netlist_digest.hpp"
#include "t1/flow_engine.hpp"

namespace t1map {
namespace {

t1::FlowParams t1_params() {
  t1::FlowParams params;
  params.num_phases = 4;
  params.use_t1 = true;
  params.verify_rounds = 0;
  return params;
}

/// Full-result signature: mapped netlist structure plus the stage
/// assignment plus the DFF count — what "bit-identical" means here.
std::string signature(const t1::EngineResult& result) {
  std::ostringstream os;
  io::write_blif(os, result.materialized.netlist, "sig");
  os << "|sigma";
  for (const int s : result.materialized.stages.sigma) os << ' ' << s;
  os << "|po " << result.materialized.stages.sigma_po;
  os << "|dffs " << result.stats.dffs;
  return os.str();
}

/// Id-preserving rebuild of `src` with fanin0 of AND `target` complemented.
/// The caller must pick a `target` whose toggle does not strash-collapse
/// (checked via the node count).
Aig toggle_fanin0(const Aig& src, std::uint32_t target) {
  Aig out;
  std::vector<Lit> map(src.num_nodes(), Aig::kConst0);
  for (std::uint32_t i = 0; i < src.num_pis(); ++i) {
    map[src.pis()[i]] = out.create_pi(src.pi_name(i));
  }
  const auto translate = [&](Lit l) {
    return lit_notif(map[lit_node(l)], lit_is_complemented(l));
  };
  for (std::uint32_t n = 0; n < src.num_nodes(); ++n) {
    if (!src.is_and(n)) continue;
    Lit f0 = src.fanin0(n);
    if (n == target) f0 = lit_not(f0);
    map[n] = out.create_and(translate(f0), translate(src.fanin1(n)));
  }
  for (std::uint32_t i = 0; i < src.num_pos(); ++i) {
    out.create_po(translate(src.po(i)), src.po_name(i));
  }
  return out;
}

TEST(ConeDigests, RenumberingYieldsIdenticalDigestMultiset) {
  // Same structure, different AND creation order => different node ids.
  Aig a;
  {
    const Lit pa = a.create_pi("a"), pb = a.create_pi("b");
    const Lit pc = a.create_pi("c"), pd = a.create_pi("d");
    const Lit x = a.create_and(pa, pb);
    const Lit y = a.create_and(pc, pd);
    a.create_po(a.create_or(x, y), "f");
  }
  Aig b;
  {
    const Lit pa = b.create_pi("a"), pb = b.create_pi("b");
    const Lit pc = b.create_pi("c"), pd = b.create_pi("d");
    const Lit y = b.create_and(pc, pd);  // swapped creation order
    const Lit x = b.create_and(pa, pb);
    b.create_po(b.create_or(x, y), "f");
  }
  ASSERT_EQ(a.num_nodes(), b.num_nodes());

  std::vector<std::uint64_t> da, db;
  aig_digest::cone_digests(a, da);
  aig_digest::cone_digests(b, db);
  EXPECT_NE(da, db);  // ids differ, so the per-index vectors must
  std::sort(da.begin(), da.end());
  std::sort(db.begin(), db.end());
  EXPECT_EQ(da, db);  // ... but the multisets are identical
}

TEST(ConeDigests, SingleEditDirtiesExactlyTheFanoutCone) {
  const Aig src = gen::make_named("mul8");

  // Toggle a mid-circuit AND (strash-safe: equal node count, same id
  // layout) and diff the digests.
  std::vector<std::uint32_t> ands;
  for (std::uint32_t n = 0; n < src.num_nodes(); ++n) {
    if (src.is_and(n)) ands.push_back(n);
  }
  std::uint32_t target = 0;
  Aig edited;
  for (std::size_t i = ands.size() / 2; i < ands.size(); ++i) {
    Aig candidate = toggle_fanin0(src, ands[i]);
    if (candidate.num_nodes() == src.num_nodes()) {
      target = ands[i];
      edited = std::move(candidate);
      break;
    }
  }
  ASSERT_NE(target, 0u) << "no strash-safe toggle target";

  std::vector<std::uint64_t> before, after;
  aig_digest::cone_digests(src, before);
  aig_digest::cone_digests(edited, after);
  ASSERT_EQ(before.size(), after.size());

  // Transitive fanout of the edited node, over the (identical) id layout.
  std::vector<bool> tfo(src.num_nodes(), false);
  tfo[target] = true;
  for (std::uint32_t n = target + 1; n < src.num_nodes(); ++n) {
    if (!src.is_and(n)) continue;
    tfo[n] = tfo[lit_node(src.fanin0(n))] || tfo[lit_node(src.fanin1(n))];
  }

  for (std::uint32_t n = 0; n < src.num_nodes(); ++n) {
    if (tfo[n]) {
      EXPECT_NE(before[n], after[n]) << "node " << n << " is in the TFO";
    } else {
      EXPECT_EQ(before[n], after[n]) << "node " << n << " is outside the TFO";
    }
  }
}

TEST(Incremental, WarmRunsAreBitIdenticalToColdAcrossGenerators) {
  const char* const kCircuits[] = {"adder16",      "adder64", "mul8",
                                   "square12",     "voter25", "comparator16",
                                   "sin12",        "cordic28"};
  const t1::FlowParams params = t1_params();
  t1::FlowEngine warm;  // incremental is the default
  t1::FlowEngine cold;
  cold.set_incremental(false);
  ASSERT_TRUE(warm.incremental());
  ASSERT_FALSE(cold.incremental());

  for (const char* const name : kCircuits) {
    const Aig base = gen::make_named(name);
    const std::uint64_t seeds = std::string_view(name) == "mul8" ? 3 : 2;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      const Aig mutant = fuzz::mutate_aig(base, fuzz::MutateOptions{seed, 1});

      // Prime the memo with the base, then run across the edit.
      const t1::EngineResult primed = warm.run(base, params);
      const t1::EngineResult inc = warm.run(mutant, params);
      const t1::EngineResult ref = cold.run(mutant, params);

      ASSERT_EQ(inc.status, ref.status) << name << " seed " << seed;
      ASSERT_TRUE(inc.has_materialized);
      EXPECT_EQ(signature(inc), signature(ref)) << name << " seed " << seed;

      // An edited AIG misses the map slot.  T1 detection and stage
      // assignment reuse exactly when their input netlist is still the
      // primed run's node for node — an edit the mapper absorbs, as
      // sin12's seed-1 rewire is — and otherwise reuse nothing.
      EXPECT_EQ(inc.reuse.map_cones_reused, 0u) << name << " seed " << seed;
      const bool same_mapping =
          sfq::netlist_identity_digest(sfq::map_to_sfq(mutant)) ==
          sfq::netlist_identity_digest(sfq::map_to_sfq(base));
      EXPECT_EQ(inc.reuse.t1_exact, same_mapping) << name << " seed " << seed;
      EXPECT_EQ(inc.reuse.t1_cones_reused == 0, !same_mapping)
          << name << " seed " << seed;
      EXPECT_EQ(inc.reuse.stage_spliced,
                sfq::netlist_identity_digest(inc.mapped) ==
                    sfq::netlist_identity_digest(primed.mapped))
          << name << " seed " << seed;
    }
  }
}

TEST(Incremental, ExactRerunSplicesWholePasses) {
  const Aig aig = gen::make_named("adder16");
  const t1::FlowParams params = t1_params();
  t1::FlowEngine engine;

  const t1::EngineResult first = engine.run(aig, params);
  EXPECT_EQ(first.reuse.map_cones_reused, 0u);  // nothing to splice from
  EXPECT_FALSE(first.reuse.t1_exact);
  EXPECT_FALSE(first.reuse.stage_spliced);

  const t1::EngineResult second = engine.run(aig, params);
  EXPECT_EQ(signature(second), signature(first));
  EXPECT_EQ(second.reuse.map_cones_total, aig.num_ands());
  EXPECT_EQ(second.reuse.map_cones_reused, second.reuse.map_cones_total);
  EXPECT_TRUE(second.reuse.t1_exact);
  EXPECT_TRUE(second.reuse.stage_spliced);
  EXPECT_EQ(second.reuse.t1_cones_reused, second.reuse.t1_cones_total);
}

TEST(Incremental, PhaseChangeReusesMapAndT1AndRecomputesStage) {
  const Aig aig = gen::make_named("mul8");
  t1::FlowParams four = t1_params();
  t1::FlowParams five = four;
  five.num_phases = 5;
  t1::FlowEngine warm;
  t1::FlowEngine cold;
  cold.set_incremental(false);

  const t1::EngineResult warm4 = warm.run(aig, four);
  const t1::EngineResult warm5 = warm.run(aig, five);
  ASSERT_TRUE(warm4.ok());
  ASSERT_TRUE(warm5.ok());
  EXPECT_EQ(signature(warm4), signature(cold.run(aig, four)));
  EXPECT_EQ(signature(warm5), signature(cold.run(aig, five)));

  // Phases reach only stage assignment: the map and t1 inputs and
  // parameters are unchanged, so those two passes reuse their results.
  EXPECT_EQ(warm5.reuse.map_cones_total, aig.num_ands());
  EXPECT_EQ(warm5.reuse.map_cones_reused, warm5.reuse.map_cones_total);
  EXPECT_TRUE(warm5.reuse.t1_exact);
  EXPECT_EQ(warm5.reuse.t1_cones_reused, warm5.reuse.t1_cones_total);
  EXPECT_FALSE(warm5.reuse.stage_spliced);
}

// A field missing from `mapper_params_key`, `detect_params_key` or
// `stage_params_key` would let a warm run with that field changed reuse a
// stale result.  Each change below runs right after the base parameters
// filled the memo, so the pass that reads the field must miss while the
// passes upstream of it still reuse.
TEST(Incremental, EveryParamsFieldMakesItsPassRecompute) {
  const Aig aig = gen::make_named("mul8");
  const t1::FlowParams base = t1_params();
  struct Change {
    const char* field;
    std::string pass;  // the pass that reads the field
    t1::FlowParams params;
  };
  std::vector<Change> changes;
  const auto change = [&](const char* field, const char* pass) -> auto& {
    changes.push_back({field, pass, base});
    return changes.back().params;
  };
  change("mapper.cuts.k", "map").mapper.cuts.k = 2;
  change("mapper.cuts.max_cuts", "map").mapper.cuts.max_cuts = 8;
  change("detect.cuts.k", "t1").detect.cuts.k = 4;
  change("detect.cuts.max_cuts", "t1").detect.cuts.max_cuts = 8;
  change("detect.allow_input_negation", "t1").detect.allow_input_negation =
      false;
  change("detect.min_gain", "t1").detect.min_gain = 10;
  change("num_phases", "stage").num_phases = 5;
  change("optimize_stages", "stage").optimize_stages = false;
  change("stage_sweeps", "stage").stage_sweeps = 2;

  t1::FlowEngine warm;
  t1::FlowEngine cold;
  cold.set_incremental(false);
  for (const Change& c : changes) {
    (void)warm.run(aig, base);
    const t1::EngineResult r = warm.run(aig, c.params);
    ASSERT_TRUE(r.ok()) << c.field;
    const t1::ReuseCounters& reuse = r.reuse;
    const bool map_hit = reuse.map_cones_reused == reuse.map_cones_total;
    if (c.pass == "map") {
      EXPECT_EQ(reuse.map_cones_reused, 0u) << c.field;
    } else if (c.pass == "t1") {
      EXPECT_TRUE(map_hit) << c.field;
      EXPECT_FALSE(reuse.t1_exact) << c.field;
    } else {
      EXPECT_TRUE(map_hit && reuse.t1_exact) << c.field;
      EXPECT_FALSE(reuse.stage_spliced) << c.field;
    }
    EXPECT_EQ(signature(r), signature(cold.run(aig, c.params))) << c.field;
  }
}

TEST(Incremental, RenamedPortsMissTheMapSlot) {
  const Aig base = gen::make_named("adder16");
  // The same structure, node for node, with PI 0 and PO 0 renamed.
  Aig renamed;
  std::vector<Lit> map(base.num_nodes(), Aig::kConst0);
  for (std::uint32_t i = 0; i < base.num_pis(); ++i) {
    map[base.pis()[i]] =
        renamed.create_pi(i == 0 ? "renamed_in" : base.pi_name(i));
  }
  const auto translate = [&](Lit l) {
    return lit_notif(map[lit_node(l)], lit_is_complemented(l));
  };
  for (std::uint32_t n = 0; n < base.num_nodes(); ++n) {
    if (!base.is_and(n)) continue;
    map[n] = renamed.create_and(translate(base.fanin0(n)),
                                translate(base.fanin1(n)));
  }
  for (std::uint32_t i = 0; i < base.num_pos(); ++i) {
    renamed.create_po(translate(base.po(i)),
                      i == 0 ? "renamed_out" : base.po_name(i));
  }
  ASSERT_EQ(renamed.num_nodes(), base.num_nodes());
  ASSERT_NE(base.pi_name(0), "renamed_in");
  ASSERT_NE(base.po_name(0), "renamed_out");

  const t1::FlowParams params = t1_params();
  t1::FlowEngine warm;
  t1::FlowEngine cold;
  cold.set_incremental(false);
  (void)warm.run(base, params);
  const t1::EngineResult inc = warm.run(renamed, params);
  ASSERT_TRUE(inc.ok());

  // The mapped netlist carries port names, so the map slot must miss and
  // the netlist must show the new names.
  EXPECT_EQ(inc.reuse.map_cones_reused, 0u);
  EXPECT_EQ(inc.mapped.pi_name(0), "renamed_in");
  EXPECT_EQ(inc.mapped.pos().front().name, "renamed_out");
  EXPECT_EQ(signature(inc), signature(cold.run(renamed, params)));
  // T1 detection and stage assignment read no names: they still reuse.
  EXPECT_TRUE(inc.reuse.t1_exact);
  EXPECT_TRUE(inc.reuse.stage_spliced);
}

TEST(Incremental, DisablingDropsTheMemo) {
  const Aig aig = gen::make_named("adder16");
  const t1::FlowParams params = t1_params();
  t1::FlowEngine engine;

  (void)engine.run(aig, params);
  engine.set_incremental(false);
  EXPECT_FALSE(engine.incremental());
  engine.set_incremental(true);  // fresh memo, not the retained one
  const t1::EngineResult result = engine.run(aig, params);
  EXPECT_EQ(result.reuse.map_cones_reused, 0u);
}

}  // namespace
}  // namespace t1map
