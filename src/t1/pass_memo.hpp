/// \file pass_memo.hpp
/// \brief What one flow run leaves behind for the next run on the same
/// engine: the previous result of the map, t1 and stage passes.
///
/// One rule for all three: a pass reuses its whole previous result when
/// the key it would compute under equals the slot's, and otherwise
/// recomputes and stores.  A key pairs a digest of the pass's input with a
/// fingerprint of its parameters:
///
///   * map keys on `aig_digest::identity_digest` (node ids, PI and PO
///     names — the mapped netlist carries all three) and
///     `sfq::mapper_params_key`;
///   * t1 keys on `sfq::netlist_identity_digest` of the mapped netlist and
///     `detect_params_key`; its slot holds the `DetectResult`, so the
///     rewrite runs on the current netlist;
///   * stage keys on the identity digest of the (rewritten) netlist and
///     `retime::stage_params_key`.
///
/// Identity digests are id-level, so a hit hands back exactly what the
/// pass would compute: a memo never changes a result.  A `FlowEngine` owns
/// one `PassMemo` and passes it only to runs on worker 0 alone (`run`, and
/// batches that use a single worker), never to a batch spread over several
/// workers.

#pragma once

#include <cstdint>

#include "retime/stage_assign.hpp"
#include "sfq/netlist.hpp"
#include "t1/t1_detect.hpp"

namespace t1map::t1 {

/// The key a pass result was computed under.
struct PassKey {
  std::uint64_t input = 0;   // identity digest of the pass's input
  std::uint64_t params = 0;  // fingerprint of the pass's parameters
  friend bool operator==(const PassKey&, const PassKey&) = default;
};

/// One pass's previous result.
template <class Result>
struct PassSlot {
  bool valid = false;
  PassKey key;
  Result result;
};

/// The retained store, one per `FlowEngine`.
struct PassMemo {
  PassSlot<sfq::Netlist> map;
  PassSlot<DetectResult> t1;
  PassSlot<retime::StageAssignment> stage;
};

}  // namespace t1map::t1
