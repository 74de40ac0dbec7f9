/// \file stage_assign.hpp
/// \brief Multiphase stage (clock phase) assignment — paper §II-B.
///
/// Every clocked element g gets a stage `σ(g) = n·S(g) + φ(g)` (epoch S,
/// phase φ, n phases per cycle).  Model (paper [10] + §II-B):
///
///   * PIs and constants sit at stage 0; all POs are captured together at
///     `σ_PO`.
///   * A regular edge u→v is legal iff `σ(v) > σ(u)` and costs
///     `ceil((σv−σu)/n) − 1` path-balancing DFFs; fanouts of one driver
///     share a single chain, so a driver pays only the maximum over its
///     consumers.
///   * A T1 core with fanins sorted `σ(i1) ≤ σ(i2) ≤ σ(i3)` requires
///     `σ_T1 ≥ max(σ(i1)+3, σ(i2)+2, σ(i3)+1)`   (eq. 3)
///     and its three input pulses must be *released* at pairwise-distinct
///     stages inside the window `[σ_T1 − n, σ_T1 − 1]` — which is also why
///     T1 cells need n ≥ 3 phases.  Extra DFFs forced by colliding release
///     stages are the paper's `c_T1` cost (eq. 4); we compute the exact
///     minimum by enumerating the (tiny) injective release assignments.
///
/// `assign_stages` produces an ASAP assignment and optionally improves it
/// with DFF-minimizing coordinate-descent sweeps (the scalable stand-in for
/// the paper's ILP; the exact ILP formulation lives in t1/phase_ilp.hpp and
/// is used to validate this heuristic on small circuits).  Each node
/// evaluation computes the node's legal stage interval once and scores a
/// candidate in O(fanins + T1 consumers): per-driver chain tops stand in
/// for consumer-list scans, and T1 release costs come from a memo keyed on
/// the folded slack triple.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sfq/netlist.hpp"

namespace t1map::retime {

inline int ceil_div(int a, int b) { return (a + b - 1) / b; }

struct StageAssignment {
  int num_phases = 1;
  /// Stage per netlist node.  PIs/constants: 0.  Taps: the core's stage.
  std::vector<int> sigma;
  /// Common capture stage of all POs.
  int sigma_po = 0;

  /// Circuit depth in clock cycles as reported in Table I.
  int depth_cycles() const { return ceil_div(sigma_po, num_phases); }
};

/// DFFs implied by an assignment (closed form; no materialization).
struct DffCount {
  long regular = 0;   // shared per-driver chains to regular consumers / POs
  long t1 = 0;        // chains feeding T1 data inputs
  long total() const { return regular + t1; }
};

/// Optimal releases for one T1 core given producer stages and σ_T1:
/// pairwise-distinct stages in [σ_T1−n, σ_T1−1], release[j] ≥ producer[j],
/// minimizing total chain DFFs (0 when released straight from the
/// producer, else ceil((release−producer)/n)).
struct T1Releases {
  std::array<int, 3> release;
  long dffs;
};
T1Releases solve_t1_releases(const std::array<int, 3>& producer_stage,
                             int sigma_t1, int num_phases);

/// Least legal σ_T1 for the given (unsorted) fanin producer stages: eq. (3).
int t1_min_stage(std::array<int, 3> producer_stage);

struct StageParams {
  int num_phases = 1;
  /// Run DFF-minimizing improvement sweeps after ASAP.
  bool optimize = true;
  int max_sweeps = 6;
};

/// Fingerprint of every `StageParams` field; part of the key of the
/// engine's stage-pass memo.
std::uint64_t stage_params_key(const StageParams& params);

/// Assigns stages to every node of `ntk`.  Throws if the netlist contains a
/// T1 core and `num_phases < 3` (T1 input separation is impossible then).
StageAssignment assign_stages(const sfq::Netlist& ntk,
                              const StageParams& params);

/// Exact DFF count for a legal assignment.
DffCount count_dffs(const sfq::Netlist& ntk, const StageAssignment& sa);

/// True iff the assignment satisfies every edge and T1 constraint.
bool assignment_is_legal(const sfq::Netlist& ntk, const StageAssignment& sa);

}  // namespace t1map::retime
