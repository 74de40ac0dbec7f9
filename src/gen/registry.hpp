/// \file registry.hpp
/// \brief Named benchmark registry mirroring Table I of the paper.
///
/// Maps the eight benchmark names to generator instantiations at the sizes
/// `make_benchmark` (registry.cpp) chooses, and carries the *published*
/// Table I numbers so benches can print paper-vs-measured side by side.

#pragma once

#include <string>
#include <vector>

#include "aig/aig.hpp"

namespace t1map::gen {

/// The eight Table I benchmark names, in the paper's row order.
const std::vector<std::string>& table1_names();

/// Builds the named benchmark at its default (Table-I-like) size.
/// Throws ContractError for unknown names.
Aig make_benchmark(const std::string& name);

/// Resolves a generator name to an AIG.  Accepts the Table-I names
/// (`make_benchmark`) plus parametric forms `<family><width>` — e.g.
/// `adder16`, `mul8`, `square12`, `voter25`, `comparator10`, `sin12` —
/// so callers (the `t1map` CLI in particular) can run any size.
/// Throws ContractError for unknown names or invalid sizes.
Aig make_named(const std::string& name);

/// Human-readable catalogue of accepted generator names, one per line
/// (for `t1map --list-gens`).
std::string describe_generators();

/// One row of the published Table I (for comparison printing).
struct PaperRow {
  std::string name;
  int t1_found;
  int t1_used;
  long dff_1p, dff_4p, dff_t1;
  long area_1p, area_4p, area_t1;
  int depth_1p, depth_4p, depth_t1;
};

/// The published Table I, verbatim.
const std::vector<PaperRow>& paper_table1();

/// Published row for a benchmark name (nullptr if unknown).
const PaperRow* paper_row(const std::string& name);

}  // namespace t1map::gen
