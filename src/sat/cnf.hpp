/// \file cnf.hpp
/// \brief Tseitin encoding of logic networks into CNF.
///
/// Used to build miters for combinational equivalence checking between the
/// source AIG and every transformed SFQ netlist (mapping, T1 rewriting,
/// retiming are all required to preserve combinational function).

#pragma once

#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "sat/solver.hpp"

namespace t1map::sat {

/// Fresh variable as a positive literal.
inline Lit fresh_lit(Solver& solver) { return mk_lit(solver.new_var()); }

/// Encodes `out <-> a & b`.
void encode_and2(Solver& solver, Lit out, Lit a, Lit b);

/// Encodes `out <-> a ^ b`.
void encode_xor2(Solver& solver, Lit out, Lit a, Lit b);

/// Encodes an arbitrary function given by truth table `tt` over `ins`
/// (up to 6 inputs) as `out <-> tt(ins)`, one clause per falsifying /
/// satisfying row (naive but fine for <=3-input cells).
void encode_tt(Solver& solver, Lit out, const Tt& tt, std::span<const Lit> ins);

/// Result of encoding an AIG: one literal per node / PO.
struct AigCnf {
  std::vector<Lit> pi_lits;   // per PI index
  std::vector<Lit> po_lits;   // per PO index (complements folded in)
  std::vector<Lit> node_lit;  // per node id (positive polarity)
};

/// Encodes the AIG into `solver`.  If `pi_lits` is non-empty it supplies the
/// literals to use for the PIs (for miters); otherwise fresh variables are
/// created.
AigCnf encode_aig(Solver& solver, const Aig& aig,
                  std::span<const Lit> pi_lits = {});

}  // namespace t1map::sat
