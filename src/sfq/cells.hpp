/// \file cells.hpp
/// \brief The RSFQ standard-cell library: kinds, arities, functions and
/// JJ-area model.
///
/// Areas are expressed in Josephson-junction (JJ) counts, the unit Table I
/// of the paper uses.  The values approximate the Yorozu et al. standard
/// cell library (paper ref. [6]) and were calibrated against Table I's own
/// numbers:
///   * `T1 = 29` JJ is the paper's headline full-adder figure and includes
///     the pulse-merging confluence buffers at the T input;
///   * a conventional full adder (XOR3 + MAJ3 = 72 JJ) then costs exactly
///     29/72 = 40% — the ratio the paper's abstract quotes;
///   * with DFF = 7 JJ the model reproduces the paper's `adder` row
///     (238'419 JJ at 32'768 DFFs) within 0.5%.

#pragma once

#include <cstdint>
#include <string_view>

#include "common/require.hpp"
#include "tt/truth_table.hpp"

namespace t1map::sfq {

/// Every node kind that can appear in an SFQ netlist.
///
/// `kT1` is the T1 flip-flop *core*: three data fanins whose pulses are
/// merged into the T input, clocked via R.  Its logical outputs are separate
/// *tap* nodes (one fanin: the core), matching the physical output pins:
///   S  = XOR3   (sum; destructive readout at R)
///   C  = MAJ3   (carry)
///   Q  = OR3
///   CN = NOT(MAJ3)  — pin C* plus an attached inverter
///   QN = NOT(OR3)   — pin Q* plus an attached inverter
enum class CellKind : std::uint8_t {
  kPi,
  kConst0,
  kConst1,
  kBuf,
  kNot,
  kAnd2,
  kOr2,
  kXor2,
  kAnd3,
  kOr3,
  kXor3,
  kMaj3,
  kDff,  // path-balancing DFF (appears in materialized netlists only)
  kT1,
  kT1TapS,
  kT1TapC,
  kT1TapQ,
  kT1TapCn,
  kT1TapQn,
};

/// Number of distinct CellKind values (for array-indexed tables).
constexpr int kNumCellKinds = 19;

/// Area of one pulse splitter; a net with fanout f needs f-1 of them.
constexpr int kSplitterAreaJj = 3;

/// JJ area of the T1 core (paper: "the full adder function ... with only
/// 29 JJs").
constexpr int kT1AreaJj = 29;

namespace detail {

/// One row of the cell-kind table: every per-kind fact but the function.
struct KindInfo {
  std::string_view name;
  int fanins;
  int area;  // JJs
  bool clocked;
  bool logic;   // plain single-output logic cell
  bool t1_tap;  // one of the five T1 output taps
};

// The flow's hot loops (stage assignment, DFF insertion, the timing check,
// cut enumeration over a netlist) ask these per node and edge, so the table
// and its accessors are inline.
// clang-format off
inline constexpr KindInfo kKindInfo[kNumCellKinds] = {
    //             {name,      fanins, area, clocked, logic, t1_tap}
    /* kPi      */ {"PI",      0, 0,         false, false, false},
    /* kConst0  */ {"CONST0",  0, 0,         false, false, false},
    /* kConst1  */ {"CONST1",  0, 0,         false, false, false},
    /* kBuf     */ {"BUF",     1, 2,         true,  true,  false},  // JTL stage
    /* kNot     */ {"NOT",     1, 9,         true,  true,  false},
    /* kAnd2    */ {"AND2",    2, 11,        true,  true,  false},
    /* kOr2     */ {"OR2",     2, 9,         true,  true,  false},
    /* kXor2    */ {"XOR2",    2, 11,        true,  true,  false},
    /* kAnd3    */ {"AND3",    3, 13,        true,  true,  false},
    /* kOr3     */ {"OR3",     3, 13,        true,  true,  false},
    /* kXor3    */ {"XOR3",    3, 36,        true,  true,  false},
    /* kMaj3    */ {"MAJ3",    3, 36,        true,  true,  false},
    /* kDff     */ {"DFF",     1, 7,         true,  false, false},
    /* kT1      */ {"T1",      3, kT1AreaJj, true,  false, false},
    /* kT1TapS  */ {"T1.S",    1, 0,         false, false, true},
    /* kT1TapC  */ {"T1.C",    1, 0,         false, false, true},
    /* kT1TapQ  */ {"T1.Q",    1, 0,         false, false, true},
    /* kT1TapCn */ {"T1.C*",   1, 9,         false, false, true},  // attached inverter
    /* kT1TapQn */ {"T1.Q*",   1, 9,         false, false, true},  // attached inverter
};
// clang-format on

constexpr const KindInfo& kind_info(CellKind kind) {
  const int i = static_cast<int>(kind);
  T1MAP_ASSERT(i >= 0 && i < kNumCellKinds);
  return kKindInfo[i];
}

}  // namespace detail

/// Human-readable cell name (e.g. "AND2", "T1.S").
constexpr std::string_view cell_name(CellKind kind) {
  return detail::kind_info(kind).name;
}

/// Fanin count of the kind (T1 = 3; taps = 1, the core).
constexpr int cell_fanin_count(CellKind kind) {
  return detail::kind_info(kind).fanins;
}

/// JJ area of one instance.  Tap S/C/Q are free (part of the 29-JJ core);
/// tap CN/QN pay for their attached inverter.
constexpr int cell_area_jj(CellKind kind) {
  return detail::kind_info(kind).area;
}

/// True for kinds that are clocked elements and therefore occupy a stage of
/// their own (everything except PIs and constants; taps share the core's
/// stage and are reported unclocked here).
constexpr bool cell_is_clocked(CellKind kind) {
  return detail::kind_info(kind).clocked;
}

/// True for the five T1 output taps.
constexpr bool cell_is_t1_tap(CellKind kind) {
  return detail::kind_info(kind).t1_tap;
}

/// True for plain single-output logic cells usable by the technology mapper.
constexpr bool cell_is_logic(CellKind kind) {
  return detail::kind_info(kind).logic;
}

/// Local function of a logic cell over its fanins (1..3 variables).
/// Precondition: `cell_is_logic(kind)` or a tap kind; taps return their
/// function over the T1 core's three data fanins.
Tt cell_tt(CellKind kind);

}  // namespace t1map::sfq
