/// \file t1_detect.hpp
/// \brief T1-FF detection — paper §II-A.
///
/// Finds groups of cuts that share one 3-leaf set {a,b,c} and compute
/// functions a T1 flip-flop can produce:
///
///   S  = XOR3(a,b,c)        C  = MAJ3(a,b,c)        Q  = OR3(a,b,c)
///   C* → inverter = ¬MAJ3   Q* → inverter = ¬OR3
///
/// all considered under a shared *input polarity* (explicit inverters in
/// front of the T1) — "considering possible input and output negations"
/// (eq. 2).  A group of 2..5 matched roots is profitable when the area gain
///
///   ΔA = A(group MFFC) − A_T1(C)                                   (eq. 2)
///
/// is positive, where the group MFFC is every logic cell that becomes dead
/// once all matched roots are replaced by T1 taps, and A_T1 adds the 29-JJ
/// core plus one 9-JJ inverter per negated input / starred output used.
/// Overlapping winners are resolved greedily by gain, yielding the paper's
/// "T1 cells found" vs. "used" distinction.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/csr.hpp"
#include "cut/cut_enum.hpp"
#include "sfq/netlist.hpp"

namespace t1map::t1 {

/// The five logical outputs of an (extended) T1 cell.
enum class T1Output : std::uint8_t { kS, kC, kQ, kCn, kQn };

/// Tap cell kind realizing a T1 output.
sfq::CellKind tap_kind(T1Output output);

/// True for C*/Q*: outputs that pay for an attached inverter.
bool output_is_negated(T1Output output);

/// One matched root: this node's function over the group leaves equals the
/// given T1 output (under the group's input polarity).
struct T1Match {
  std::uint32_t node;
  T1Output output;
};

struct T1Candidate {
  /// The T1 data inputs, ascending node ids.
  std::array<std::uint32_t, 3> leaves;
  /// Bit i set: leaf i feeds the T1 through an inverter.
  std::uint8_t input_polarity = 0;
  std::vector<T1Match> matches;
  /// Nodes deleted by the replacement (matched roots + cells dead after).
  std::vector<std::uint32_t> mffc;
  /// eq. (2) in JJs; conservative (inverter sharing not credited).
  long gain = 0;
};

struct DetectParams {
  CutParams cuts{/*k=*/3, /*max_cuts=*/16};
  /// Enumerate the 8 input polarities (otherwise only polarity 0).
  bool allow_input_negation = true;
  /// Minimum ΔA to accept (paper: ΔA > 0, i.e. 1).
  long min_gain = 1;
};

struct DetectResult {
  /// Non-overlapping candidates, decreasing gain — ready for rewriting.
  std::vector<T1Candidate> accepted;
  /// Profitable candidates before overlap resolution (Table I "found").
  int found = 0;
  /// accepted.size() (Table I "used").
  int used = 0;
};

/// Retained artifacts of one detection run, for incremental reuse at two
/// granularities (see sfq/netlist_digest.hpp):
///
///   * equal `identity` digest → the input netlist is node-for-node the
///     previous one, so the whole (node-id-based) `DetectResult` is returned
///     verbatim — detection cost drops to one hash sweep;
///   * otherwise, per-node cone digests splice the memoized cut sets of
///     clean cones; grouping, MFFC and overlap resolution rerun over them
///     (they are global by nature) and stay bit-identical because their
///     input — the cut sets — is.
///
/// Owned by `t1::ConeMemo`; refilled (moved, not copied) after each run.
struct DetectMemo {
  bool valid = false;
  std::uint64_t params_key = 0;
  std::uint64_t identity = 0;
  std::vector<std::uint64_t> digests;
  std::vector<std::uint32_t> fanouts;
  CutSet cuts;
  DetectResult result;

  void clear() {
    valid = false;
    params_key = 0;
    identity = 0;
  }
};

/// Fingerprint of every `DetectParams` field that influences memoized
/// artifacts; a mismatch invalidates a `DetectMemo` wholesale.
std::uint64_t detect_params_key(const DetectParams& params);

/// Reuse counters of one `detect_t1` call: logic cones total vs. cut sets
/// spliced from the memo; `exact` flags the identity-digest fast path
/// (where reused == total by definition).
struct DetectReuse {
  std::uint32_t cones_total = 0;
  std::uint32_t cones_reused = 0;
  bool exact = false;
};

/// Reusable flat storage for `detect_t1` (the `CutWorkspace` pattern): the
/// CSR consumer lists, the hash-indexed candidate-group table, the match
/// arena and the epoch-stamped mark arrays all keep their heap capacity
/// across calls, so a scratch held in a `FlowScratch` stops allocating
/// after the first netlist of a batch.  Contents are reset per call; reuse
/// never changes the result.
struct DetectScratch {
  /// One grouped match record; `next` chains a group's matches in
  /// discovery order through `match_pool`.
  struct MatchRec {
    std::uint32_t node;
    T1Output output;
    std::uint32_t next;  // kNone terminates
  };
  /// One candidate group: a (leaf triple, input polarity) key plus its
  /// match chain.
  struct Group {
    std::array<std::uint32_t, 3> leaves;
    std::uint8_t polarity = 0;
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
  };
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  // Consumer lists + PO flags (the CSR substrate shared with retime).
  Csr<std::uint32_t> fanouts;
  std::vector<std::uint8_t> drives_po;

  // Hash-indexed group table: open addressing, power-of-two capacity,
  // entries are group index + 1 (0 = empty slot).
  std::vector<std::uint32_t> table;
  std::vector<Group> groups;
  std::vector<MatchRec> match_pool;
  std::vector<std::uint32_t> group_order;  // (leaves, polarity)-sorted ids

  // Epoch-stamped node marks (no per-candidate clearing) and the MFFC
  // frontier heap.
  std::vector<std::uint32_t> in_set;
  std::vector<std::uint32_t> queued;
  std::uint32_t epoch = 0;
  std::vector<std::uint32_t> frontier;
  std::vector<std::uint32_t> members;

  // Conflict-resolution flags, one byte per node (kClaim* bits), and for
  // each claimed root the tap it becomes (accepted index * 5 + output).
  std::vector<std::uint8_t> claim;
  std::vector<std::uint32_t> root_tap;
};

/// Runs detection on a mapped (T1-free) netlist.  `workspace`, when given,
/// supplies the cut-enumeration arena, and `scratch` the grouping/MFFC
/// storage (both reset per call; reuse across runs avoids arena growth
/// without changing the result).
///
/// `memo`, when given, enables incremental detection (see `DetectMemo`);
/// the result is bit-identical to a memo-less run.  `reuse`, when given,
/// receives the splice counters.
DetectResult detect_t1(const sfq::Netlist& ntk,
                       const DetectParams& params = {},
                       CutWorkspace* workspace = nullptr,
                       DetectScratch* scratch = nullptr,
                       DetectMemo* memo = nullptr, DetectReuse* reuse = nullptr);

}  // namespace t1map::t1
