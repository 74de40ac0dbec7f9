/// \file netlist_sim.hpp
/// \brief Functional cross-verification between AIGs and SFQ netlists.
///
/// Random 64-way-parallel simulation with matched PI ordering.  This is the
/// first line of defense for every transformation (mapping, T1 rewriting);
/// SAT-based equivalence (sat/cec.hpp) is the second.

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "sfq/netlist.hpp"

namespace t1map::sfq {

/// A mismatch found by random simulation.
struct Mismatch {
  std::uint32_t po_index;
  std::vector<std::uint64_t> pi_words;  // stimulus word per PI
};

/// One netlist cell as the check evaluates it: its kind and the value slots
/// of its inputs (a T1 tap reads its core's three data inputs).
struct SimCell {
  CellKind kind;
  std::array<std::uint32_t, 3> in;
};

/// Reusable buffers of the check: the compiled netlist and the value words
/// of both designs.  Passing the same scratch to many checks keeps them
/// allocated across all of them (the FlowEngine holds one per thread);
/// results are unaffected.
struct SimScratch {
  std::vector<std::uint32_t> slot;  // netlist node -> value slot
  std::vector<SimCell> cells;       // in node order; cell i fills one slot
  std::vector<std::uint32_t> po_slot;
  std::vector<std::uint64_t> ntk_value;  // kSimBlock words per slot
  std::vector<std::uint64_t> aig_value;  // kSimBlock words per AIG node
};

/// Simulates `rounds` * 64 random patterns through both designs, then the
/// all-zero, the all-one and one walking-ones round per 64 PIs; returns the
/// first mismatch found (first round, then lowest PO), or nullopt when all
/// patterns agree.  Negative `rounds` count as 0.  For designs with at most
/// 6 PIs the one round is exhaustive instead.  PI/PO counts and order must
/// match.
///
/// The netlist is compiled once per call: a DFF or buffer reads its fanin's
/// value slot, and each T1 tap reads its core's data inputs, so the rounds
/// simulate cells only, `kSimBlock` rounds at a time.
std::optional<Mismatch> find_sim_mismatch(const Aig& aig, const Netlist& ntk,
                                          int rounds, std::uint64_t seed,
                                          SimScratch* scratch = nullptr);

/// Convenience wrapper: true when no mismatch is found.  For designs with at
/// most 6 PIs the check is exhaustive regardless of `rounds`.
bool random_equivalent(const Aig& aig, const Netlist& ntk, int rounds = 64,
                       std::uint64_t seed = 1, SimScratch* scratch = nullptr);

}  // namespace t1map::sfq
