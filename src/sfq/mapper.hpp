/// \file mapper.hpp
/// \brief Cut-based technology mapping from AIG to the SFQ cell library.
///
/// Every SFQ logic gate is clocked, so logic depth directly sets the
/// pipeline length and — through path balancing — the DFF bill.  The mapper
/// is therefore *depth-oriented*: per node it selects, among all 3-feasible
/// cuts whose function is implementable as one library cell plus input /
/// output inverters, the config with minimal arrival time, breaking ties by
/// area flow.  This is how the wide XOR3/MAJ3 cells win on carry chains
/// (one stage instead of two) exactly as in the paper's `adder` row, while
/// AND2-dominated control logic maps to cheap 2-input cells.
///
/// Inverters are explicit clocked NOT cells (RSFQ inverters are clocked);
/// they are deduplicated per driven signal.

#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "cut/cut_enum.hpp"
#include "sfq/netlist.hpp"
#include "tt/truth_table.hpp"

namespace t1map::sfq {

struct MapperParams {
  CutParams cuts{/*k=*/3, /*max_cuts=*/16};
};

/// Optional intra-netlist parallelism for `map_to_sfq`.  Both cut
/// enumeration and the covering DP run level-parallel over the AIG's
/// topological levels when a pool (>= 2 workers) *and* the scratch are
/// supplied; otherwise the mapper is serial.  The mapped netlist and stats
/// are bit-identical either way (see `enumerate_cuts_parallel`; the DP
/// writes are per-node and read only lower, already-committed levels).
struct MapParallel {
  WorkerPool* pool = nullptr;
  ParallelCutScratch* cuts = nullptr;
};

struct MapStats {
  long cells = 0;      // library cells instantiated (inverters included)
  long inverters = 0;  // NOT cells among them
  int depth_stages = 0;
};

/// One way to realize a Boolean function as a library cell plus inverters.
struct CellConfig {
  CellKind kind;
  std::uint8_t input_neg = 0;  // bit i: invert input i
  bool output_neg = false;
  int area = 0;  // cell + inverter JJ area (before inverter sharing)
};

/// All non-dominated configs realizing `tt` (arity 1..3, full support).
/// Empty when the function is not realizable as a single cell + inverters
/// (possible only for some 3-variable functions).
const std::vector<CellConfig>& match_function(const Tt& tt);

/// The covering DP's decision for one AND node: the chosen cut (active
/// leaves in truth-table variable order), its function, the cell config
/// realizing it, and the DP values downstream consumers read.  Flat and
/// copyable — this is the per-cone artifact the incremental mapper splices.
struct MapChoice {
  std::array<std::uint32_t, kMaxCutLeaves> leaves{};
  std::uint8_t num_leaves = 0;
  Tt tt;
  CellConfig config;
  int arrival = 0;
  double flow = 0.0;
  bool valid = false;

  std::span<const std::uint32_t> leaf_span() const {
    return {leaves.data(), num_leaves};
  }
};

/// Retained artifacts of one mapping run, keyed by per-node cone digests:
/// the full cut sets and DP choices, plus the digests/fanouts needed to
/// build a cone correspondence against the next AIG.  Owned by
/// `t1::ConeMemo`; contents are moved in after each run (no deep copies).
struct MapMemo {
  bool valid = false;
  std::uint64_t params_key = 0;  // fingerprint of the cut parameters
  std::vector<std::uint64_t> digests;
  std::vector<std::uint32_t> fanouts;
  CutSet cuts;
  std::vector<MapChoice> choices;

  void clear() {
    valid = false;
    params_key = 0;
  }
};

/// Fingerprint of every `MapperParams` field that influences memoized
/// artifacts; a mismatch invalidates a `MapMemo` wholesale.
std::uint64_t mapper_params_key(const MapperParams& params);

/// Reuse counters of one `map_to_sfq` call: AND nodes total vs. spliced
/// from the memo (a cold run reports reused = 0).
struct MapReuse {
  std::uint32_t cones_total = 0;
  std::uint32_t cones_reused = 0;
};

/// Maps `aig` to an SFQ netlist with identical PI/PO interface and
/// function.  The result contains logic cells only (no DFFs, no T1s —
/// T1 substitution is the separate detection pass of t1/).  Every node
/// records its AIG origin (netlist.hpp), memo-warm runs included.
///
/// `workspace`, when given, supplies the cut-enumeration arena; it is reset
/// per call, so reusing one workspace across many mappings avoids the
/// per-run arena growth without changing the result.
///
/// `memo`, when given, enables cone-level incremental mapping: cut sets and
/// DP choices of nodes whose fan-in cone digest (and fanout count) match a
/// node of the memoized previous run are spliced instead of recomputed, and
/// the memo is refilled with this run's artifacts before returning.  The
/// mapped netlist is bit-identical to a memo-less run.  `reuse`, when
/// given, receives the splice counters.
Netlist map_to_sfq(const Aig& aig, const MapperParams& params = {},
                   MapStats* stats = nullptr,
                   CutWorkspace* workspace = nullptr,
                   const MapParallel& parallel = {}, MapMemo* memo = nullptr,
                   MapReuse* reuse = nullptr);

}  // namespace t1map::sfq
