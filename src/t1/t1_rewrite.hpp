/// \file t1_rewrite.hpp
/// \brief Applies accepted T1 candidates to a netlist (paper §II-A, second
/// half: "the MFFCs of nodes u1..un are replaced by the T1-FF-based
/// circuit").
///
/// For every accepted candidate the rewriter instantiates one T1 core fed by
/// the (possibly inverted) leaves, adds one tap per distinct matched output,
/// reroutes every consumer of a matched root to the corresponding tap, and
/// drops the group MFFC.  Input inverters are shared across candidates.
/// AIG origins carry through: surviving nodes keep theirs, a tap takes the
/// origin of the root it replaces, an input inverter the complement of its
/// input's.
/// The result is functionally equivalent to the input by construction (each
/// tap's function equals the replaced root's cut function); tests verify
/// this by exhaustive/random simulation and SAT.

#pragma once

#include <vector>

#include "sfq/netlist.hpp"
#include "t1/t1_detect.hpp"

namespace t1map::t1 {

struct RewriteStats {
  int t1_cores = 0;
  int taps = 0;
  int input_inverters = 0;  // fresh NOT cells created for input polarities
  long removed_cells = 0;
  /// Exact change of combinational cell area (JJ, splitters excluded):
  /// old minus new.  At least the sum of accepted gains (inverter sharing
  /// can only improve it).
  long cell_area_delta = 0;
};

/// Returns the rewritten netlist.  `accepted` must be non-overlapping, as
/// produced by `detect_t1`.
sfq::Netlist apply_t1_rewrite(const sfq::Netlist& ntk,
                              const std::vector<T1Candidate>& accepted,
                              RewriteStats* stats = nullptr);

}  // namespace t1map::t1
