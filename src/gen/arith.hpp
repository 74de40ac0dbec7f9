/// \file arith.hpp
/// \brief Arithmetic circuit generators (EPFL/ISCAS benchmark equivalents).
///
/// The paper evaluates on EPFL and ISCAS-85 arithmetic circuits.  Those
/// exact netlist files are not shipped here; instead, these generators
/// reproduce the circuits' *arithmetic structure* — ripple-carry chains,
/// partial-product arrays and 3:2 compressor trees — which is what makes
/// them T1-rich (every full adder is an XOR3/MAJ3 pair over one leaf set).
///
/// All generators are verified against reference integer arithmetic by the
/// test suite.

#pragma once

#include <utility>
#include <vector>

#include "aig/aig.hpp"

namespace t1map::gen {

/// sum = a ⊕ b ⊕ c, carry = MAJ(a, b, c) — one full adder.
struct FullAdderOut {
  Lit sum;
  Lit carry;
};
FullAdderOut full_adder(Aig& aig, Lit a, Lit b, Lit c);

/// sum = a ⊕ b, carry = a & b.
FullAdderOut half_adder(Aig& aig, Lit a, Lit b);

/// Ripple-carry addition of two equal-width little-endian words; returns
/// width+1 result bits (carry-out last).  `cin` defaults to constant 0.
std::vector<Lit> ripple_add(Aig& aig, const std::vector<Lit>& a,
                            const std::vector<Lit>& b, Lit cin = Aig::kConst0);

/// Reduces weighted columns of bits with full/half adders until every
/// column holds at most 2 bits, then ripple-adds the two survivors.
/// `columns[w]` are the bits of weight w.  Returns the little-endian sum.
std::vector<Lit> compress_columns(Aig& aig, std::vector<std::vector<Lit>> columns);

/// 128-bit EPFL-style `adder`: two width-bit operands, width+1 outputs.
/// Bit 0 is a half adder, bits 1..width-1 full adders (127 T1 opportunities
/// at width 128, matching the paper's count).
Aig ripple_adder(int width);

/// ISCAS-style carry-save array multiplier (c6288 is exactly this at
/// width 16): width² partial products, FA/HA array, ripple final row.
Aig array_multiplier(int width);

/// EPFL-style `square`: symmetric partial products folded (a_i·a_j + a_j·a_i
/// = a_i·a_j at weight i+j+1), reduced with a compressor tree.
Aig squarer(int width);

}  // namespace t1map::gen
