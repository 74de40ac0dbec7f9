/// \file dff_insert.hpp
/// \brief DFF insertion — paper §II-C.
///
/// Materializes the path-balancing DFFs implied by a stage assignment into
/// an explicit netlist:
///
///   * per driver, one *shared* chain of DFFs spaced n stages apart serves
///     all regular consumers and POs (a consumer needing k DFFs taps the
///     k-th chain element) — the optimal single-driver sharing;
///   * per T1 data input, a dedicated chain ends at the *release* stage
///     chosen by `solve_t1_releases`, so the three input pulses reach the
///     core at pairwise-distinct stages (paper eq. 5).
///
/// The returned netlist is functionally identical to the input (DFFs are
/// identity functions) and its per-node stages satisfy the local timing
/// rules that `check_timing` (timing_check.hpp) validates independently.
/// Nodes keep their AIG origins (netlist.hpp); a DFF takes its driver's.

#pragma once

#include <cstdint>
#include <vector>

#include "retime/stage_assign.hpp"
#include "sfq/netlist.hpp"

namespace t1map::retime {

struct MaterializeResult {
  sfq::Netlist netlist;
  /// Stages aligned with `netlist` nodes (DFFs included).
  StageAssignment stages;
  /// Original node id -> materialized node id.
  std::vector<std::uint32_t> node_map;
  long num_dffs = 0;
};

/// Inserts all path-balancing DFFs.  `sa` must be legal for `ntk`.
/// Postcondition: `result.num_dffs == count_dffs(ntk, sa).total()`.
MaterializeResult insert_dffs(const sfq::Netlist& ntk,
                              const StageAssignment& sa);

}  // namespace t1map::retime
