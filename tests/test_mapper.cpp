// Technology mapper tests: config matching tables, functional equivalence of
// mapped netlists (exhaustive + SAT), and depth behaviour on carry chains.

#include <gtest/gtest.h>

#include "aig/aig_sim.hpp"
#include "common/rng.hpp"
#include "sat/cec.hpp"
#include "sfq/mapper.hpp"
#include "sfq/netlist_sim.hpp"

namespace t1map::sfq {
namespace {

TEST(MatchFunction, AllTwoVarFunctionsRealizable) {
  // Every nonconstant 2-variable function with full support must match.
  for (std::uint64_t bits = 0; bits < 16; ++bits) {
    const Tt tt(2, bits);
    if (tt.support_mask() != 0b11u) continue;
    EXPECT_FALSE(match_function(tt).empty()) << tt.to_string();
  }
}

TEST(MatchFunction, ConfigsComputeTheirFunction) {
  for (int arity = 1; arity <= 3; ++arity) {
    const std::uint64_t space = 1ull << (1u << arity);
    for (std::uint64_t bits = 0; bits < space; ++bits) {
      const Tt tt(arity, bits);
      for (const CellConfig& config : match_function(tt)) {
        Tt realized = cell_tt(config.kind).apply_polarity(config.input_neg);
        if (config.output_neg) realized = ~realized;
        EXPECT_EQ(realized, tt) << "kind " << cell_name(config.kind);
        EXPECT_GT(config.area, 0);
      }
    }
  }
}

TEST(MatchFunction, SomeThreeVarFunctionsAreNotSingleCell) {
  // a ^ (b & c) is not any library cell modulo inverters.
  const Tt f = Tt::var(3, 0) ^ (Tt::var(3, 1) & Tt::var(3, 2));
  EXPECT_TRUE(match_function(f).empty());
  // But XOR3/MAJ3/OR3 and their polarities are.
  EXPECT_FALSE(match_function(tts::xor3()).empty());
  EXPECT_FALSE(match_function(~tts::maj3()).empty());
  EXPECT_FALSE(match_function(tts::or3().apply_polarity(0b101)).empty());
}

TEST(SupportReduction, EveryFunctionUpToThreeVars) {
  // All 2 + 4 + 16 + 256 entries: the support is the function's support,
  // the reduced function re-expanded onto it gives the function back and
  // depends on every variable it keeps, and the configs are its matches.
  int entries = 0;
  for (int arity = 0; arity <= 3; ++arity) {
    const std::uint64_t space = 1ull << (1u << arity);
    for (std::uint64_t bits = 0; bits < space; ++bits) {
      const Tt tt(arity, bits);
      const SupportReduction& reduced = reduce_support(tt);
      EXPECT_EQ(reduced.support, tt.support_mask()) << tt.to_string();
      std::vector<int> where;
      for (int v = 0; v < arity; ++v) {
        if ((reduced.support >> v) & 1u) where.push_back(v);
      }
      ASSERT_EQ(reduced.tt.num_vars(), static_cast<int>(where.size()));
      EXPECT_EQ(reduced.tt.remap(arity, where), tt) << tt.to_string();
      EXPECT_EQ(reduced.tt.support_mask(), (1u << where.size()) - 1);
      const std::vector<CellConfig>& configs = match_function(reduced.tt);
      EXPECT_EQ(reduced.configs.data(), configs.data());
      EXPECT_EQ(reduced.configs.size(), configs.size());
      ++entries;
    }
  }
  EXPECT_EQ(entries, 278);
  EXPECT_THROW(reduce_support(Tt(4)), ContractError);
}

TEST(Mapper, FullAdderMapsToXor3Maj3) {
  Aig aig;
  const Lit a = aig.create_pi();
  const Lit b = aig.create_pi();
  const Lit c = aig.create_pi();
  aig.create_po(aig.create_xor3(a, b, c));
  aig.create_po(aig.create_maj3(a, b, c));

  MapStats stats;
  const Netlist ntk = map_to_sfq(aig, {}, &stats);
  ntk.check_well_formed();
  EXPECT_TRUE(random_equivalent(aig, ntk));
  // Depth-oriented mapping realizes each output in one stage.
  EXPECT_GE(ntk.count_kind(CellKind::kXor3) +
                ntk.count_kind(CellKind::kMaj3),
            2u);
  EXPECT_EQ(stats.depth_stages, 1);
}

TEST(Mapper, ComplementedAndConstantPos) {
  Aig aig;
  const Lit a = aig.create_pi();
  const Lit b = aig.create_pi();
  aig.create_po(lit_not(aig.create_and(a, b)), "nand");
  aig.create_po(Aig::kConst0, "zero");
  aig.create_po(Aig::kConst1, "one");
  aig.create_po(lit_not(a), "na");

  const Netlist ntk = map_to_sfq(aig);
  ntk.check_well_formed();
  EXPECT_TRUE(random_equivalent(aig, ntk));
}

TEST(Mapper, RandomAigsExhaustivelyEquivalent) {
  Rng rng(2024);
  for (int trial = 0; trial < 30; ++trial) {
    Aig aig;
    std::vector<Lit> sigs;
    for (int i = 0; i < 5; ++i) sigs.push_back(aig.create_pi());
    for (int i = 0; i < 25; ++i) {
      const Lit x = sigs[rng.below(sigs.size())];
      const Lit y = sigs[rng.below(sigs.size())];
      sigs.push_back(
          aig.create_and(lit_notif(x, rng.flip()), lit_notif(y, rng.flip())));
    }
    for (int o = 0; o < 3; ++o) {
      aig.create_po(lit_notif(sigs[sigs.size() - 1 - o], rng.flip()));
    }
    const Netlist ntk = map_to_sfq(aig);
    ntk.check_well_formed();
    EXPECT_TRUE(random_equivalent(aig, ntk)) << "trial " << trial;
  }
}

TEST(Mapper, SatEquivalenceOnMediumCircuit) {
  // 6-bit ripple adder: SAT-proved equivalence of AIG vs mapped netlist.
  Aig aig;
  std::vector<Lit> a, b;
  for (int i = 0; i < 6; ++i) a.push_back(aig.create_pi());
  for (int i = 0; i < 6; ++i) b.push_back(aig.create_pi());
  Lit carry = Aig::kConst0;
  for (int i = 0; i < 6; ++i) {
    aig.create_po(aig.create_xor3(a[i], b[i], carry));
    carry = aig.create_maj3(a[i], b[i], carry);
  }
  aig.create_po(carry);

  const Netlist ntk = map_to_sfq(aig);
  const auto cec = sat::check_equivalence(aig, ntk);
  EXPECT_EQ(cec.verdict, sat::CecResult::Verdict::kEquivalent);
}

TEST(Mapper, CarryChainDepthIsLinearNotDouble) {
  // With XOR3/MAJ3 cells the n-bit ripple adder maps to depth ~n, not ~2n.
  Aig aig;
  std::vector<Lit> a, b;
  const int width = 16;
  for (int i = 0; i < width; ++i) a.push_back(aig.create_pi());
  for (int i = 0; i < width; ++i) b.push_back(aig.create_pi());
  Lit carry = Aig::kConst0;
  for (int i = 0; i < width; ++i) {
    aig.create_po(aig.create_xor3(a[i], b[i], carry));
    carry = aig.create_maj3(a[i], b[i], carry);
  }
  aig.create_po(carry);

  MapStats stats;
  map_to_sfq(aig, {}, &stats);
  EXPECT_LE(stats.depth_stages, width + 1);
  EXPECT_GE(stats.depth_stages, width - 1);
}

TEST(Mapper, InverterSharing) {
  // Two consumers of !a must share one NOT cell.
  Aig aig;
  const Lit a = aig.create_pi();
  const Lit b = aig.create_pi();
  const Lit c = aig.create_pi();
  aig.create_po(aig.create_and(lit_not(a), b));
  aig.create_po(aig.create_and(lit_not(a), c));
  MapStats stats;
  const Netlist ntk = map_to_sfq(aig, {}, &stats);
  EXPECT_TRUE(random_equivalent(aig, ntk));
  EXPECT_LE(ntk.count_kind(CellKind::kNot), 1u);
}

}  // namespace
}  // namespace t1map::sfq
