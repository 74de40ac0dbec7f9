/// \file cec.hpp
/// \brief Combinational equivalence checking: a correspondence sweep over
/// flow netlists, SAT miters otherwise.
///
/// A netlist the flow builds records, per node, the AIG literal the node
/// realizes — its *origin* (sfq/netlist.hpp).  `check_equivalence(aig,
/// ntk, …)` sweeps such a netlist in id (topological) order and keeps one
/// representative per node: an AIG literal once the node is proven equal to
/// it, a solver literal otherwise.  DFFs pass their input's representative
/// through, and so do buffers and inverters (complemented) unless the
/// mapper chose them to cover a node they then prove locally.  Every other
/// cell and T1 tap is proven against its origin
///   * locally when all its inputs are proven: the origin's truth table over
///     a small cut of the AIG (the inputs' nodes, or those of their driver
///     cells, plus at most two extra nodes the mapper dropped as
///     irrelevant) must equal the cell's function — no SAT;
///   * otherwise by one SAT query: the cell is encoded over its inputs'
///     literals next to the (lazily encoded) AIG.  UNSAT merges the cell
///     into its origin; SAT keeps the structural literal, because a wrong
///     hint only costs the shortcut.
/// A primary output whose representative is the AIG output literal is
/// proven; the others are refuted pair by pair on a miter, in output order.
/// Netlists without origins (read from BLIF, built by hand) and AIG-vs-AIG
/// checks use that miter alone.
///
/// Budget: `conflict_limit` is one shared countdown over every SAT query of
/// one check, cell queries and output miters alike; local proofs spend none
/// of it.  A query that exhausts it stops all further queries, and the
/// first output not proven by then is reported kUnknown.
///
/// Origins are hints, never trusted: the verdict, the lowest failing output
/// and the counterexample of an unbudgeted check do not depend on them.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "sat/solver.hpp"
#include "sfq/netlist.hpp"

namespace t1map::sat {

struct CecResult {
  enum class Verdict { kEquivalent, kNotEquivalent, kUnknown };
  Verdict verdict = Verdict::kUnknown;
  /// For kNotEquivalent: one distinguishing input assignment (per PI),
  /// derived from a fresh deterministic re-solve of the failing output's
  /// miter, so it does not depend on the hints or on what the checking
  /// solver had learned.
  std::vector<bool> counterexample;
  /// The PO index the verdict hinges on: for kNotEquivalent the *lowest*
  /// differing output; for kUnknown the first output still unproven when
  /// the conflict budget ran out; -1 for kEquivalent.
  std::int32_t failing_output = -1;

  // Work counters.  All deterministic, like the verdict fields.
  std::int64_t conflicts = 0;      // over every SAT query of the check
  std::int64_t cells_local = 0;    // cells proved by a local truth table
  std::int64_t cells_sat = 0;      // cells proved by a SAT query
  std::int64_t hints_refuted = 0;  // origins a SAT query showed wrong
  std::int64_t po_queries = 0;     // output miter queries
};

/// AIG vs. SFQ netlist.  `conflict_limit < 0`: no limit.
CecResult check_equivalence(const Aig& aig, const sfq::Netlist& ntk,
                            std::int64_t conflict_limit = -1);

/// As above, but encodes into the caller-owned `solver` (reset before its
/// first query), so a long-lived solver amortizes its clause-arena
/// allocations across many checks.  The result is identical to the
/// fresh-solver overload.
CecResult check_equivalence(const Aig& aig, const sfq::Netlist& ntk,
                            std::int64_t conflict_limit, Solver& solver);

/// AIG vs. AIG, on the output miter.
CecResult check_equivalence(const Aig& a, const Aig& b,
                            std::int64_t conflict_limit = -1);

/// Encodes a netlist into the solver with the given PI literals; returns
/// one literal per PO.
std::vector<Lit> encode_netlist(Solver& solver, const sfq::Netlist& ntk,
                                std::span<const Lit> pi_lits);

}  // namespace t1map::sat
