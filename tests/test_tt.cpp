// Unit tests for the truth-table module: operators, cofactors, polarity,
// remapping and composition, cross-checked against direct enumeration.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "tt/truth_table.hpp"

namespace t1map {
namespace {

TEST(Tt, ConstantsAndProjections) {
  EXPECT_TRUE(Tt::zeros(3).is_const0());
  EXPECT_TRUE(Tt::ones(3).is_const1());
  EXPECT_EQ(Tt::ones(3).count_ones(), 8);
  for (int n = 1; n <= 6; ++n) {
    for (int v = 0; v < n; ++v) {
      const Tt proj = Tt::var(n, v);
      for (std::uint64_t i = 0; i < proj.num_bits(); ++i) {
        EXPECT_EQ(proj.bit(i), ((i >> v) & 1u) != 0);
      }
    }
  }
}

TEST(Tt, BitwiseOperatorsMatchEnumeration) {
  const Tt a = Tt::var(3, 0);
  const Tt b = Tt::var(3, 1);
  const Tt c = Tt::var(3, 2);
  const Tt f = (a & b) | (~a & c);
  for (std::uint64_t i = 0; i < 8; ++i) {
    const bool av = (i >> 0) & 1, bv = (i >> 1) & 1, cv = (i >> 2) & 1;
    EXPECT_EQ(f.bit(i), (av && bv) || (!av && cv));
  }
}

TEST(Tt, NamedFunctions) {
  EXPECT_EQ(tts::xor3(), Tt::var(3, 0) ^ Tt::var(3, 1) ^ Tt::var(3, 2));
  EXPECT_EQ(tts::maj3(), (Tt::var(3, 0) & Tt::var(3, 1)) |
                             (Tt::var(3, 0) & Tt::var(3, 2)) |
                             (Tt::var(3, 1) & Tt::var(3, 2)));
  EXPECT_EQ(tts::or3(), Tt::var(3, 0) | Tt::var(3, 1) | Tt::var(3, 2));
  EXPECT_EQ(tts::and2().count_ones(), 1);
  EXPECT_EQ(tts::xor2().count_ones(), 2);
}

TEST(Tt, CofactorsAndSupport) {
  const Tt f = tts::maj3();
  EXPECT_EQ(f.cofactor1(0), Tt::var(3, 1) | Tt::var(3, 2));
  EXPECT_EQ(f.cofactor0(0), Tt::var(3, 1) & Tt::var(3, 2));
  EXPECT_EQ(f.support_mask(), 0b111u);

  const Tt g = Tt::var(3, 1);  // depends only on var 1
  EXPECT_EQ(g.support_mask(), 0b010u);
  EXPECT_FALSE(g.depends_on(0));
  EXPECT_TRUE(g.depends_on(1));
}

TEST(Tt, FlipVarInvolution) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const Tt f(3, rng.next() & 0xFF);
    for (int v = 0; v < 3; ++v) {
      EXPECT_EQ(f.flip_var(v).flip_var(v), f);
    }
  }
}

TEST(Tt, FlipVarSemantics) {
  const Tt f = tts::and2();  // a & b
  const Tt g = f.flip_var(0);  // !a & b
  for (std::uint64_t i = 0; i < 4; ++i) {
    const bool av = i & 1, bv = (i >> 1) & 1;
    EXPECT_EQ(g.bit(i), (!av && bv));
  }
}

TEST(Tt, PolarityOnSymmetricFunctions) {
  // XOR3 under any polarity is XOR3 or its complement (parity of flips).
  for (std::uint32_t p = 0; p < 8; ++p) {
    const Tt f = tts::xor3().apply_polarity(p);
    if (__builtin_popcount(p) % 2 == 0) {
      EXPECT_EQ(f, tts::xor3());
    } else {
      EXPECT_EQ(f, ~tts::xor3());
    }
  }
  // MAJ3 with all inputs flipped is the complement.
  EXPECT_EQ(tts::maj3().apply_polarity(0b111), ~tts::maj3());
}

TEST(Tt, SwapVars) {
  const Tt f = Tt::var(3, 0) & ~Tt::var(3, 2);  // a & !c
  const Tt g = f.swap_vars(0, 2);               // c & !a
  EXPECT_EQ(g, Tt::var(3, 2) & ~Tt::var(3, 0));
  EXPECT_EQ(f.swap_vars(1, 1), f);
}

TEST(Tt, RemapIntoLargerSpace) {
  // f(a,b) = a&b remapped to vars {2,0} of a 3-space: x2 & x0.
  const int where[] = {2, 0};
  const Tt f = tts::and2().remap(3, where);
  EXPECT_EQ(f, Tt::var(3, 2) & Tt::var(3, 0));
}

TEST(Tt, Expand) {
  // xor2 over a 3-variable space, its variables at positions 0 and 2.
  EXPECT_EQ(tts::xor2().expand(3, 0b101), Tt::var(3, 0) ^ Tt::var(3, 2));
}

TEST(Tt, ExpandMatchesRemapExhaustively) {
  // Every placement of |from| variables among |to| <= 4 positions (one per
  // sorted from ⊆ to of a cut merge) and every function over `from`,
  // against the generic remap.
  long checked = 0;
  for (int nto = 0; nto <= 4; ++nto) {
    for (std::uint32_t positions = 0; positions < (1u << nto); ++positions) {
      std::vector<int> where;
      for (int j = 0; j < nto; ++j) {
        if ((positions >> j) & 1u) where.push_back(j);
      }
      const int nfrom = static_cast<int>(where.size());
      for (std::uint64_t bits = 0; bits < (1ull << (1u << nfrom)); ++bits) {
        const Tt tt(nfrom, bits);
        ASSERT_EQ(tt.expand(nto, positions), tt.remap(nto, where))
            << "positions " << positions << " of " << nto << ", f "
            << tt.to_string();
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 2 + (4 + 2) + (16 + 2 * 4 + 2) +
                         (256 + 3 * 16 + 3 * 4 + 2) +
                         (65536 + 4 * 256 + 6 * 16 + 4 * 4 + 2));
}

TEST(Tt, ExpandRejectsMisuse) {
  // One position per variable, all below the new arity, at most 6 in all.
  EXPECT_THROW(tts::xor2().expand(3, 0b001), ContractError);
  EXPECT_THROW(tts::xor2().expand(3, 0b111), ContractError);
  EXPECT_THROW(tts::xor2().expand(2, 0b100), ContractError);
  EXPECT_THROW(Tt(6).expand(6, 0), ContractError);
  EXPECT_THROW(tts::xor2().expand(7, 0b11), ContractError);
}

TEST(Tt, ComposeFullAdder) {
  // sum = XOR2(XOR2(a,b), c) composed over 3 leaves equals XOR3.
  const Tt ab = Tt::var(3, 0) ^ Tt::var(3, 1);
  const Tt c = Tt::var(3, 2);
  const Tt fanins[] = {ab, c};
  EXPECT_EQ(compose(tts::xor2(), fanins), tts::xor3());
}

TEST(Tt, ComposeAgainstPointwise) {
  // Every local function of 1 or 2 variables on every pair of 2-variable
  // fanin tables, and every 3-variable local on random 3-variable fanins.
  const auto check = [](const Tt& local, std::span<const Tt> fanins) {
    const Tt got = compose(local, fanins);
    ASSERT_EQ(got.num_vars(), fanins[0].num_vars());
    for (std::uint64_t i = 0; i < got.num_bits(); ++i) {
      std::uint64_t point = 0;
      for (std::size_t k = 0; k < fanins.size(); ++k) {
        if (fanins[k].bit(i)) point |= 1ull << k;
      }
      ASSERT_EQ(got.bit(i), local.bit(point))
          << "local " << local.to_string() << " row " << i;
    }
  };
  for (std::uint64_t l = 0; l < 4; ++l) {
    for (std::uint64_t f0 = 0; f0 < 16; ++f0) {
      const Tt fanins[] = {Tt(2, f0)};
      check(Tt(1, l), fanins);
    }
  }
  for (std::uint64_t l = 0; l < 16; ++l) {
    for (std::uint64_t f0 = 0; f0 < 16; ++f0) {
      for (std::uint64_t f1 = 0; f1 < 16; ++f1) {
        const Tt fanins[] = {Tt(2, f0), Tt(2, f1)};
        check(Tt(2, l), fanins);
      }
    }
  }
  Rng rng(99);
  for (std::uint64_t l = 0; l < 256; ++l) {
    for (int trial = 0; trial < 16; ++trial) {
      const Tt fanins[] = {Tt(3, rng.next()), Tt(3, rng.next()),
                           Tt(3, rng.next())};
      check(Tt(3, l), fanins);
    }
  }
}

TEST(Tt, ContractViolations) {
  EXPECT_THROW(Tt(7, 0), ContractError);
  EXPECT_THROW(Tt::var(3, 3), ContractError);
  EXPECT_THROW(tts::and2() & tts::and3(), ContractError);
}

TEST(Tt, ToString) {
  EXPECT_EQ(tts::and2().to_string(), "1000");
  EXPECT_EQ(tts::xor2().to_string(), "0110");
}

}  // namespace
}  // namespace t1map
