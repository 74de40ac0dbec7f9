#include "sat/cnf.hpp"

#include <algorithm>

namespace t1map::sat {

namespace {

/// A cube over `nvars` inputs: `care` masks the bound variables, `val` their
/// polarities.  Minterms are full-care cubes.
struct Cube {
  std::uint8_t care;
  std::uint8_t val;
  bool operator==(const Cube& o) const {
    return care == o.care && val == o.val;
  }
};

/// Prime implicants of the function whose ON-set is `on_bits`, by iterative
/// cube merging (Quine–McCluskey without the cover-selection step).  Primes
/// may overlap, which is harmless for clause generation; every minterm is
/// covered.  With <= 6 variables the input has at most 64 minterms.
void prime_cubes(std::uint64_t on_bits, int nvars, std::vector<Cube>& primes) {
  primes.clear();
  std::vector<Cube> cur;
  const std::uint8_t full = static_cast<std::uint8_t>((1u << nvars) - 1);
  for (std::uint64_t row = 0; row < (1ull << nvars); ++row) {
    if ((on_bits >> row) & 1u) {
      cur.push_back(Cube{full, static_cast<std::uint8_t>(row)});
    }
  }
  std::vector<Cube> next;
  std::vector<bool> merged;
  while (!cur.empty()) {
    next.clear();
    merged.assign(cur.size(), false);
    for (std::size_t i = 0; i < cur.size(); ++i) {
      for (std::size_t j = i + 1; j < cur.size(); ++j) {
        if (cur[i].care != cur[j].care) continue;
        const std::uint8_t diff = cur[i].val ^ cur[j].val;
        if (__builtin_popcount(diff) != 1) continue;
        merged[i] = merged[j] = true;
        const Cube m{static_cast<std::uint8_t>(cur[i].care & ~diff),
                     static_cast<std::uint8_t>(cur[i].val & ~diff)};
        if (std::find(next.begin(), next.end(), m) == next.end()) {
          next.push_back(m);
        }
      }
    }
    for (std::size_t i = 0; i < cur.size(); ++i) {
      if (!merged[i]) primes.push_back(cur[i]);
    }
    std::swap(cur, next);
  }
}

}  // namespace

void encode_and2(Solver& solver, Lit out, Lit a, Lit b) {
  solver.add_clause({lit_negate(out), a});
  solver.add_clause({lit_negate(out), b});
  solver.add_clause({out, lit_negate(a), lit_negate(b)});
}

void encode_xor2(Solver& solver, Lit out, Lit a, Lit b) {
  solver.add_clause({lit_negate(out), a, b});
  solver.add_clause({lit_negate(out), lit_negate(a), lit_negate(b)});
  solver.add_clause({out, lit_negate(a), b});
  solver.add_clause({out, a, lit_negate(b)});
}

void encode_tt(Solver& solver, Lit out, const Tt& tt,
               std::span<const Lit> ins) {
  T1MAP_REQUIRE(static_cast<int>(ins.size()) == tt.num_vars(),
                "encode_tt: input count must match arity");
  // Implicant-based encoding: every prime cube p of f yields the clause
  // (¬p ∨ out), every prime cube of ¬f the clause (¬p ∨ ¬out).  For MAJ3
  // this gives 6 ternary clauses instead of 8 quaternary row clauses; for
  // row-irreducible functions (XORs) it degenerates to the row encoding.
  const int nvars = tt.num_vars();
  std::vector<Lit> clause;
  std::vector<Cube> primes;
  const auto emit = [&](std::uint64_t on_bits, Lit out_lit) {
    prime_cubes(on_bits, nvars, primes);
    for (const Cube& c : primes) {
      clause.clear();
      for (int v = 0; v < nvars; ++v) {
        if (((c.care >> v) & 1u) == 0) continue;
        clause.push_back(((c.val >> v) & 1u) != 0 ? lit_negate(ins[v])
                                                  : ins[v]);
      }
      clause.push_back(out_lit);
      solver.add_clause(clause);
    }
  };
  emit(tt.bits(), out);
  emit((~tt).bits(), lit_negate(out));
}

AigCnf encode_aig(Solver& solver, const Aig& aig,
                  std::span<const Lit> pi_lits) {
  AigCnf cnf;
  cnf.node_lit.assign(aig.num_nodes(), 0);

  // Constant-false node: a fresh variable pinned to 0.
  const Lit const_lit = fresh_lit(solver);
  solver.add_clause({lit_negate(const_lit)});
  cnf.node_lit[0] = const_lit;

  if (pi_lits.empty()) {
    cnf.pi_lits.reserve(aig.num_pis());
    for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
      cnf.pi_lits.push_back(fresh_lit(solver));
    }
  } else {
    T1MAP_REQUIRE(pi_lits.size() == aig.num_pis(),
                  "encode_aig: wrong number of PI literals");
    cnf.pi_lits.assign(pi_lits.begin(), pi_lits.end());
  }
  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    cnf.node_lit[aig.pis()[i]] = cnf.pi_lits[i];
  }

  const auto to_sat = [&cnf](t1map::Lit aig_lit) -> Lit {
    const Lit base = cnf.node_lit[lit_node(aig_lit)];
    return lit_is_complemented(aig_lit) ? lit_negate(base) : base;
  };

  for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
    if (!aig.is_and(n)) continue;
    const Lit out = fresh_lit(solver);
    encode_and2(solver, out, to_sat(aig.fanin0(n)), to_sat(aig.fanin1(n)));
    cnf.node_lit[n] = out;
  }

  cnf.po_lits.reserve(aig.num_pos());
  for (const t1map::Lit po : aig.pos()) {
    cnf.po_lits.push_back(to_sat(po));
  }
  return cnf;
}

}  // namespace t1map::sat
