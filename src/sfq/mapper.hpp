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

/// A cut function restricted to its functional support: the covering DP's
/// per-cut lookup.
struct SupportReduction {
  /// The function over its support variables, in order.
  Tt tt;
  /// Bit v is set when the function depends on variable v.
  std::uint8_t support = 0;
  /// `match_function(tt)`; empty for the constants.
  std::span<const CellConfig> configs;
};

/// The support reduction of `tt` (arity 0..3), precomputed for all 278
/// such functions.
const SupportReduction& reduce_support(const Tt& tt);

/// The covering DP's decision for one AND node: the chosen cut (active
/// leaves in truth-table variable order), its function, the cell config
/// realizing it, and the DP values downstream consumers read.
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

/// Fingerprint of every `MapperParams` field that influences the mapped
/// netlist; part of the key of the engine's map-pass memo.
std::uint64_t mapper_params_key(const MapperParams& params);

/// Maps `aig` to an SFQ netlist with identical PI/PO interface and
/// function.  The result contains logic cells only (no DFFs, no T1s —
/// T1 substitution is the separate detection pass of t1/).  Every node
/// records its AIG origin (netlist.hpp).
///
/// `workspace`, when given, supplies the cut-enumeration arena; it is reset
/// per call, so reusing one workspace across many mappings avoids the
/// per-run arena growth without changing the result.
Netlist map_to_sfq(const Aig& aig, const MapperParams& params = {},
                   MapStats* stats = nullptr,
                   CutWorkspace* workspace = nullptr);

}  // namespace t1map::sfq
