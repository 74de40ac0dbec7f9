/// \file flow.hpp
/// \brief Parameters, Table-I statistics and stage times of the T1-aware
/// technology-mapping flow (paper §II) and of the 1φ / nφ baselines of
/// Table I.
///
/// Flow:
///   AIG  ──mapper──►  SFQ netlist  ──[T1 detect + rewrite]──►
///        ──stage assignment (§II-B)──►  DFF insertion (§II-C)──►
///        materialized netlist + Table-I statistics.
///
/// A `FlowEngine` (flow_engine.hpp) runs it, then checks the materialized
/// netlist: the independent timing validator, random simulation against
/// the source AIG when `verify_rounds` > 0 and, when the engine's
/// `Pipeline` asks for it, SAT CEC.

#pragma once

#include <cstdint>
#include <string>

#include "aig/aig.hpp"
#include "retime/dff_insert.hpp"
#include "retime/timing_check.hpp"
#include "sfq/mapper.hpp"
#include "t1/t1_detect.hpp"
#include "t1/t1_rewrite.hpp"

namespace t1map::t1 {

struct FlowParams {
  /// Clock phases n.  1 = classic full path balancing; the paper's T1
  /// column uses 4.
  int num_phases = 4;
  /// Enable T1 detection + substitution (requires num_phases >= 3).
  bool use_t1 = true;
  /// Run the DFF-minimizing stage-improvement sweeps.
  bool optimize_stages = true;
  int stage_sweeps = 6;
  DetectParams detect;
  sfq::MapperParams mapper;
  /// Verify the result against the AIG by random simulation (rounds of 64
  /// patterns); 0 disables.
  int verify_rounds = 8;
  /// Conflict budget of SAT CEC when the engine's `Pipeline` asks for it
  /// (flow_engine.hpp); < 0 = unlimited.
  std::int64_t cec_conflict_limit = -1;
};

/// The three configurations Table I compares on every circuit: the 1φ
/// baseline, the nφ baseline and nφ with T1 cells.
enum class TableConfig { k1phi, kNphi, kT1 };

/// The flow parameters of `config` at `phases` clock phases (k1phi runs
/// one whatever `phases` says); every other field keeps its default.
/// Throws ContractError when kT1 gets fewer than 3 phases: a T1 cell's
/// three data inputs need pairwise distinct phases.
FlowParams table_params(TableConfig config, int phases);

/// The configuration's report key: "baseline_1phi", "baseline_<phases>phi"
/// or "t1".
std::string config_key(TableConfig config, int phases);

/// The quantities Table I reports (plus a few internals).
struct FlowStats {
  long dffs = 0;        // path-balancing DFFs ("#DFF")
  long area_jj = 0;     // total area in JJs, DFFs and splitters included
  int depth_cycles = 0; // logic depth in cycles
  int t1_found = 0;
  int t1_used = 0;
  long t1_cores = 0;
  long logic_cells = 0;   // mapped cells surviving after rewrite (incl. NOTs)
  long splitters = 0;
  int num_stages = 0;     // σ_PO
};

/// Wall-clock seconds per flow stage, filled by every run of a `FlowEngine`
/// (flow_engine.hpp; the bench harness aggregates these into
/// `BENCH_flow.json`).
struct StageTimes {
  double map = 0.0;          // technology mapping (incl. cut enumeration)
  double t1_detect = 0.0;    // T1 detection + substitution
  double stage_assign = 0.0; // phase assignment (§II-B)
  double dff_insert = 0.0;   // DFF materialization (§II-C)
  double self_check = 0.0;   // timing validation + random-sim equivalence
  double cec = 0.0;          // SAT CEC, when the `Pipeline` asks for it
  double total_wall = 0.0;   // the whole flow
};

}  // namespace t1map::t1
