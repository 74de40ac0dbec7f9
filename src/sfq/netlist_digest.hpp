/// \file netlist_digest.hpp
/// \brief Identity digest of an SFQ netlist, the input key of the engine's
/// T1-detection and stage-assignment memo (t1/pass_memo.hpp).
///
/// `netlist_identity_digest` is a raw hash of the id-level structure
/// (kinds, fanin ids, PO drivers).  Equal identity digests mean the two
/// netlists are the *same object* node for node, which is what makes
/// whole-pass results (a `DetectResult`, a `StageAssignment` — both
/// node-id-based) safe to reuse verbatim.
///
/// PI/PO names and AIG origins are deliberately excluded: T1 detection and
/// stage assignment read neither.

#pragma once

#include <cstdint>

#include "sfq/netlist.hpp"

namespace t1map::sfq {

/// Raw id-level structural hash: node stream (kind, fanin ids) plus the PO
/// driver sequence.  Names excluded.
std::uint64_t netlist_identity_digest(const Netlist& ntk);

}  // namespace t1map::sfq
