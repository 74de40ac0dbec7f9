/// \file cone_memo.hpp
/// \brief The retained store of cone-level incremental mapping: everything
/// one flow run leaves behind for the next run to splice from.
///
/// One `ConeMemo` aggregates the per-pass memos — the mapper's cut sets and
/// DP choices (`sfq::MapMemo`), the T1 detector's cut sets and whole-pass
/// result (`DetectMemo`), and the stage assigner's whole-pass result
/// (`StageMemo`).  A `FlowEngine` owns one and hands it to the passes
/// through the `FlowContext`; each pass decides independently how much of
/// its memo is usable (params fingerprints and structural digests gate
/// every splice), so a memo can never make a run produce anything but the
/// bit-identical cold result — at worst it is ignored.
///
/// The memo is engine-local and single-threaded by design: `FlowEngine`
/// passes it only to runs on worker 0 alone (`run`, and batches that use a
/// single worker), never to a batch spread over several workers, and
/// spliced passes run their serial paths.

#pragma once

#include <cstdint>

#include "retime/stage_assign.hpp"
#include "sfq/mapper.hpp"
#include "t1/t1_detect.hpp"

namespace t1map::t1 {

/// Whole-pass memo of stage assignment.  The coordinate-descent stage
/// optimizer is move-sequence dependent, so there is no sound cone-level
/// splice for it; instead an exact match of the rewritten netlist's
/// identity digest (see sfq/netlist_digest.hpp) returns the memoized
/// `StageAssignment` verbatim.  That exact hit is the common case this memo
/// exists for: after a small AIG edit whose dirty region the *mapper*
/// absorbed identically (e.g. a pure fanin-polarity toggle that re-maps to
/// the same cells), or on a straight re-run of the same input.
struct StageMemo {
  bool valid = false;
  std::uint64_t params_key = 0;
  std::uint64_t identity = 0;
  retime::StageAssignment assignment;

  void clear() {
    valid = false;
    params_key = 0;
    identity = 0;
  }
};

/// Fingerprint of every stage-assignment knob that influences the memoized
/// assignment; a mismatch invalidates a `StageMemo` wholesale.
std::uint64_t stage_params_key(const retime::StageParams& params);

/// The full retained store, one per `FlowEngine`.
struct ConeMemo {
  sfq::MapMemo map;
  DetectMemo detect;
  StageMemo stage;

  void clear();
};

}  // namespace t1map::t1
