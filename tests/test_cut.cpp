// Cut enumeration tests: structural properties (leaf bounds, trivial cut,
// dominance, signatures) and functional correctness of per-cut truth tables,
// verified against node simulation.  These pin the enumerator's observable
// behavior across the flat-memory (inline leaves + arena) implementation.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "aig/aig_sim.hpp"
#include "common/rng.hpp"
#include "cut/cut_enum.hpp"
#include "gen/registry.hpp"
#include "pin_digest.hpp"
#include "sfq/mapper.hpp"

namespace t1map {
namespace {

std::vector<std::uint32_t> to_vec(const CutLeaves& leaves) {
  return {leaves.begin(), leaves.end()};
}

/// Random AIG with `num_pis` inputs and `num_ands` AND nodes.
Aig random_aig(Rng& rng, int num_pis, int num_ands) {
  Aig aig;
  std::vector<Lit> sigs;
  for (int i = 0; i < num_pis; ++i) sigs.push_back(aig.create_pi());
  for (int i = 0; i < num_ands; ++i) {
    const Lit x = sigs[rng.below(sigs.size())];
    const Lit y = sigs[rng.below(sigs.size())];
    sigs.push_back(
        aig.create_and(lit_notif(x, rng.flip()), lit_notif(y, rng.flip())));
  }
  aig.create_po(sigs.back());
  return aig;
}

TEST(CutEnum, MergeLeaves) {
  CutLeaves out;
  std::uint32_t in_a = 0;
  std::uint32_t in_b = 0;
  EXPECT_TRUE(
      merge_leaves(CutLeaves{1, 3}, CutLeaves{2, 3}, 3, out, in_a, in_b));
  EXPECT_EQ(to_vec(out), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(in_a, 0b101u);
  EXPECT_EQ(in_b, 0b110u);
  EXPECT_FALSE(
      merge_leaves(CutLeaves{1, 2}, CutLeaves{3, 4}, 3, out, in_a, in_b));
  EXPECT_TRUE(merge_leaves(CutLeaves{}, CutLeaves{5}, 3, out, in_a, in_b));
  EXPECT_EQ(to_vec(out), (std::vector<std::uint32_t>{5}));
  EXPECT_EQ(in_a, 0u);
  EXPECT_EQ(in_b, 0b1u);
}

TEST(CutEnum, LeavesSubset) {
  EXPECT_TRUE(leaves_subset(CutLeaves{1, 3}, CutLeaves{1, 2, 3}));
  EXPECT_FALSE(leaves_subset(CutLeaves{1, 4}, CutLeaves{1, 2, 3}));
  EXPECT_TRUE(leaves_subset(CutLeaves{}, CutLeaves{1}));
  EXPECT_FALSE(leaves_subset(CutLeaves{1, 2, 3}, CutLeaves{1, 2}));
}

TEST(CutEnum, SignatureIsUnionOfLeafBits) {
  Rng rng(11);
  const Aig aig = random_aig(rng, 8, 60);
  const auto cuts = enumerate_cuts(aig, CutParams{4, 16});
  for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
    for (const Cut& cut : cuts[n]) {
      std::uint64_t sig = 0;
      for (const std::uint32_t l : cut.leaves) sig |= leaf_sig(l);
      EXPECT_EQ(cut.sig, sig) << "node " << n;
    }
  }
}

TEST(CutEnum, FullAdderCutsFound) {
  Aig aig;
  const Lit a = aig.create_pi();
  const Lit b = aig.create_pi();
  const Lit c = aig.create_pi();
  const Lit sum = aig.create_xor3(a, b, c);
  const Lit carry = aig.create_maj3(a, b, c);
  aig.create_po(sum);
  aig.create_po(carry);

  const auto cuts = enumerate_cuts(aig, CutParams{3, 16});

  // The sum root must own a 3-leaf cut {a,b,c} computing XOR3, the carry
  // root one computing MAJ3.
  const std::vector<std::uint32_t> leaves = {lit_node(a), lit_node(b),
                                             lit_node(c)};
  bool found_xor3 = false;
  for (const Cut& cut : cuts[lit_node(sum)]) {
    if (cut.leaves == std::span<const std::uint32_t>(leaves)) {
      // PO may be complemented; function is over positive node polarity.
      const Tt expect =
          lit_is_complemented(sum) ? ~tts::xor3() : tts::xor3();
      EXPECT_EQ(cut.tt, expect);
      found_xor3 = true;
    }
  }
  EXPECT_TRUE(found_xor3);

  bool found_maj3 = false;
  for (const Cut& cut : cuts[lit_node(carry)]) {
    if (cut.leaves == std::span<const std::uint32_t>(leaves)) {
      const Tt expect =
          lit_is_complemented(carry) ? ~tts::maj3() : tts::maj3();
      EXPECT_EQ(cut.tt, expect);
      found_maj3 = true;
    }
  }
  EXPECT_TRUE(found_maj3);
}

TEST(CutEnum, TrivialCutAlwaysFirst) {
  Aig aig;
  const Lit a = aig.create_pi();
  const Lit b = aig.create_pi();
  const Lit x = aig.create_and(a, b);
  aig.create_po(x);
  const auto cuts = enumerate_cuts(aig);
  for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
    ASSERT_FALSE(cuts[n].empty());
    EXPECT_TRUE(cuts[n][0].is_trivial(n));
  }
}

/// The invariants every retained cut set must satisfy, for any k: leaf
/// count bounded, leaves sorted, tt arity matches, no duplicate leaf sets,
/// no retained cut dominated by another, trivial cut first.
template <class Ntk>
void check_structural_invariants(const Ntk& ntk, int k) {
  const auto cuts = enumerate_cuts(ntk, CutParams{k, 12});
  ASSERT_EQ(cuts.size(), ntk.size());
  for (std::uint32_t n = 0; n < ntk.size(); ++n) {
    ASSERT_FALSE(cuts[n].empty());
    EXPECT_TRUE(cuts[n][0].is_trivial(n));
    std::set<std::vector<std::uint32_t>> seen;
    for (const Cut& cut : cuts[n]) {
      EXPECT_GE(cut.leaves.size(), 1u);
      EXPECT_LE(cut.leaves.size(), static_cast<std::size_t>(k));
      EXPECT_TRUE(std::is_sorted(cut.leaves.begin(), cut.leaves.end()));
      EXPECT_EQ(cut.tt.num_vars(), static_cast<int>(cut.leaves.size()));
      // No duplicate leaf sets anywhere in the node's cut set.
      EXPECT_TRUE(seen.insert(to_vec(cut.leaves)).second)
          << "duplicate leaf set at node " << n;
    }
    // Dominance: no retained cut's leaves are a strict subset of
    // another's (the trivial cut can never be dominated).
    for (std::size_t i = 1; i < cuts[n].size(); ++i) {
      for (std::size_t j = 1; j < cuts[n].size(); ++j) {
        if (i == j) continue;
        EXPECT_FALSE(!(cuts[n][i].leaves == cuts[n][j].leaves) &&
                     leaves_subset(cuts[n][i].leaves, cuts[n][j].leaves))
            << "node " << n << ": cut " << j << " dominated by " << i;
      }
    }
  }
}

// Every cut size, on AIGs (the mapper's view) and on the mapped netlist of
// a generated circuit (T1 detection's view, with 1- and 3-fanin cells).
TEST(CutEnum, StructuralInvariantsOnRandomCircuits) {
  Rng rng(5);
  for (int trial = 0; trial < 4; ++trial) {
    const Aig aig = random_aig(rng, 8, 60);
    const Aig fuzz = gen::make_named("fuzz" + std::to_string(120 + trial));
    const sfq::Netlist mapped = sfq::map_to_sfq(fuzz);
    for (const int k : {1, 2, 3, 4}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " k " +
                   std::to_string(k));
      check_structural_invariants(aig, k);
      check_structural_invariants(fuzz, k);
      check_structural_invariants(mapped, k);
    }
  }
}

/// Evaluates every non-trivial cut's tt on the leaves' value words and
/// checks it reproduces the node's value word; counts the cuts in
/// `checked`.
template <class Ntk>
void check_cut_functions(const Ntk& ntk,
                         const std::vector<std::uint64_t>& value, int k,
                         long& checked) {
  const auto cuts = enumerate_cuts(ntk, CutParams{k, 16});
  for (std::uint32_t n = 0; n < ntk.size(); ++n) {
    for (const Cut& cut : cuts[n]) {
      if (cut.is_trivial(n)) continue;
      for (int bit = 0; bit < 64; ++bit) {
        std::uint64_t point = 0;
        for (std::size_t l = 0; l < cut.leaves.size(); ++l) {
          if ((value[cut.leaves[l]] >> bit) & 1u) point |= (1ull << l);
        }
        ASSERT_EQ(cut.tt.bit(point), ((value[n] >> bit) & 1u) != 0)
            << "k " << k << " node " << n << " bit " << bit;
      }
      ++checked;
    }
  }
}

TEST(CutEnum, CutFunctionsMatchSimulation) {
  // Every cut size, on the AIG (checked against AIG simulation) and on its
  // mapped netlist (checked against `Netlist::simulate_nodes`).  At k = 1
  // an AIG has only trivial cuts; the netlist's inverters still have one.
  Rng rng(17);
  for (const int k : {1, 2, 3, 4}) {
    const Aig aig = gen::make_named("fuzz" + std::to_string(90 + k));
    std::vector<std::uint64_t> pi_words(aig.num_pis());
    for (auto& w : pi_words) w = rng.next();
    long aig_checked = 0;
    check_cut_functions(aig, simulate_nodes(aig, pi_words), k, aig_checked);
    const sfq::Netlist mapped = sfq::map_to_sfq(aig);
    long netlist_checked = 0;
    check_cut_functions(mapped, mapped.simulate_nodes(pi_words), k,
                        netlist_checked);
    if (k > 1) {
      EXPECT_GT(aig_checked, 50) << "k " << k;
    }
    EXPECT_GT(netlist_checked, k > 1 ? 50 : 10) << "k " << k;
  }
}

TEST(CutEnum, CutSizeOutsideOneToFourIsAContractError) {
  Rng rng(23);
  const Aig aig = random_aig(rng, 4, 12);
  const sfq::Netlist mapped = sfq::map_to_sfq(aig);
  for (const int k : {0, 5}) {
    EXPECT_THROW(enumerate_cuts(aig, CutParams{k, 16}), ContractError) << k;
    EXPECT_THROW(enumerate_cuts(mapped, CutParams{k, 16}), ContractError) << k;
  }
}

/// Folds the whole cut set of `ntk` into `d`: the node count, each node's
/// cut count, and each cut's leaves, signature and truth table.
template <class Ntk>
void digest_cuts(const Ntk& ntk, const CutParams& params, PinDigest& d) {
  const CutSet cuts = enumerate_cuts(ntk, params);
  d.add(static_cast<std::int64_t>(cuts.size()));
  for (std::uint32_t n = 0; n < cuts.size(); ++n) {
    d.add(static_cast<std::int64_t>(cuts[n].size()));
    for (const Cut& cut : cuts[n]) {
      d.add(static_cast<std::int64_t>(cut.leaves.size()));
      for (const std::uint32_t l : cut.leaves) d.add(l);
      d.add(static_cast<std::int64_t>(cut.sig));
      d.add(cut.tt.num_vars());
      d.add(static_cast<std::int64_t>(cut.tt.bits()));
    }
  }
}

struct PinnedCuts {
  const char* circuits;  // a Table-I name, "fuzz" or "sweep" (see below)
  bool netlist;          // the mapped netlist T1 detection enumerates
  int k;
  int max_cuts;
  std::uint64_t digest;
};

TEST(CutEnum, CutSetsArePinned) {
  // Captured from the kernel that read `k` at run time.  Rows at the
  // flow's own parameters (k = 3, 16 cuts) cover the Table-I set and 40
  // random circuits; the k / max_cuts sweep runs on smaller circuits.  The
  // netlist rows enumerate the default mapping of each circuit.  A failure
  // prints the row as it is now.
  // clang-format off
  static const PinnedCuts kRows[] = {
      // circuits   netlist k  cuts  digest
      {"adder",      false, 3, 16, 0xdefd94566e98adc9ull},
      {"adder",      true,  3, 16, 0x7b71ab301dd2f055ull},
      {"c7552",      false, 3, 16, 0xc1c29c8b7ce9989eull},
      {"c7552",      true,  3, 16, 0x24afab438d53d12dull},
      {"c6288",      false, 3, 16, 0xad6286a7b56aa4f0ull},
      {"c6288",      true,  3, 16, 0xbfc36d0a561ef9c1ull},
      {"sin",        false, 3, 16, 0xe540981e005ab322ull},
      {"sin",        true,  3, 16, 0x35889bad9c2c3f8aull},
      {"voter",      false, 3, 16, 0x62e82ca18ce57ca7ull},
      {"voter",      true,  3, 16, 0xa273581ad4c3c305ull},
      {"square",     false, 3, 16, 0xf6b7a2f09eb78711ull},
      {"square",     true,  3, 16, 0x5a5bf4cecc81da36ull},
      {"multiplier", false, 3, 16, 0xbb89d62c56f92932ull},
      {"multiplier", true,  3, 16, 0xa3b15e254e269ddcull},
      {"log2",       false, 3, 16, 0x48963793007405d6ull},
      {"log2",       true,  3, 16, 0xcde67959dcad007aull},
      {"fuzz",       false, 3, 16, 0x5bf23fa7d5be43dbull},
      {"fuzz",       true,  3, 16, 0xa183030432112e91ull},
      {"sweep",      false, 1,  1, 0x07f3bc22833759c1ull},
      {"sweep",      false, 1,  4, 0x07f3bc22833759c1ull},
      {"sweep",      false, 1, 16, 0x07f3bc22833759c1ull},
      {"sweep",      false, 2,  1, 0xf9d6e492b7ad994bull},
      {"sweep",      false, 2,  4, 0x418051493389ea6dull},
      {"sweep",      false, 2, 16, 0x418051493389ea6dull},
      {"sweep",      false, 3,  1, 0xf9d6e492b7ad994bull},
      {"sweep",      false, 3,  4, 0x4354f67b0cd9df2eull},
      {"sweep",      false, 3, 16, 0x5da6b22a6e850a85ull},
      {"sweep",      false, 4,  1, 0xf9d6e492b7ad994bull},
      {"sweep",      false, 4,  4, 0xacc6f2a77e021712ull},
      {"sweep",      false, 4, 16, 0x4fbb2ed6a940d922ull},
      {"sweep",      true,  1,  1, 0xad54f61df9ffde40ull},
      {"sweep",      true,  1,  4, 0x0961ed9fc3e4f22dull},
      {"sweep",      true,  1, 16, 0x0961ed9fc3e4f22dull},
      {"sweep",      true,  2,  1, 0xa7a6ad994c6dd040ull},
      {"sweep",      true,  2,  4, 0xbb08bb0d779e5e1eull},
      {"sweep",      true,  2, 16, 0xbb08bb0d779e5e1eull},
      {"sweep",      true,  3,  1, 0xa2abd15fef0900b3ull},
      {"sweep",      true,  3,  4, 0xabcf6634c49cd4e2ull},
      {"sweep",      true,  3, 16, 0xe8cee2d1e091edffull},
      {"sweep",      true,  4,  1, 0xa2abd15fef0900b3ull},
      {"sweep",      true,  4,  4, 0x4382b759cf4a6de5ull},
      {"sweep",      true,  4, 16, 0x54e913dc4205b694ull},
  };
  // clang-format on
  std::vector<std::string> fuzz;
  for (int i = 0; i < 40; ++i) {
    fuzz.push_back("fuzz" + std::to_string(30 + 11 * i));
  }
  const std::vector<std::string> sweep = {"adder16", "mul8", "voter25",
                                          "fuzz200", "fuzz350"};

  // Each circuit is generated and mapped once, on first use.
  std::map<std::string, std::pair<Aig, sfq::Netlist>> views;
  const auto view = [&views](const std::string& c) -> const auto& {
    auto it = views.find(c);
    if (it == views.end()) {
      Aig aig = gen::make_named(c);
      sfq::Netlist mapped = sfq::map_to_sfq(aig);
      it = views.try_emplace(c, std::move(aig), std::move(mapped)).first;
    }
    return it->second;
  };

  for (const PinnedCuts& row : kRows) {
    const std::string name = row.circuits;
    std::vector<std::string> circuits{name};
    if (name == "fuzz") circuits = fuzz;
    if (name == "sweep") circuits = sweep;
    const CutParams params{row.k, row.max_cuts};
    PinDigest d;
    for (const std::string& c : circuits) {
      if (row.netlist) {
        digest_cuts(view(c).second, params, d);
      } else {
        digest_cuts(view(c).first, params, d);
      }
    }
    char now[128];
    std::snprintf(now, sizeof now, "{\"%s\", %s, %d, %d, 0x%016llxull},",
                  row.circuits, row.netlist ? "true" : "false", row.k,
                  row.max_cuts, static_cast<unsigned long long>(d.h));
    EXPECT_EQ(d.h, row.digest) << now;
  }
}

}  // namespace
}  // namespace t1map
