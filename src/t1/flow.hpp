/// \file flow.hpp
/// \brief The complete T1-aware technology-mapping flow (paper §II) plus the
/// 1φ / nφ baselines of Table I.
///
/// Pipeline:
///   AIG  ──mapper──►  SFQ netlist  ──[T1 detect + rewrite]──►
///        ──stage assignment (§II-B)──►  DFF insertion (§II-C)──►
///        materialized netlist + Table-I statistics.
///
/// Every run self-checks: the materialized netlist passes the independent
/// timing validator and (optionally) random-simulation equivalence against
/// the source AIG.

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
  /// Conflict budget of the SAT CEC pass when the pipeline includes it
  /// (flow_engine.hpp); < 0 = unlimited.
  std::int64_t cec_conflict_limit = -1;
};

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

/// Wall-clock seconds per flow stage, filled by every `run_flow` call (the
/// bench harness aggregates these into `BENCH_flow.json`).
struct StageTimes {
  double map = 0.0;          // technology mapping (incl. cut enumeration)
  double t1_detect = 0.0;    // T1 detection + substitution
  double stage_assign = 0.0; // phase assignment (§II-B)
  double dff_insert = 0.0;   // DFF materialization (§II-C)
  double self_check = 0.0;   // timing validation + random-sim equivalence
  double cec = 0.0;          // SAT CEC, when the pipeline includes the pass
  /// Wall-clock of the whole pipeline vs. total CPU time including the
  /// intra-pass worker threads (equal when running serially).  The gap is
  /// what `--bench-threads` reports as parallel efficiency.
  double total_wall = 0.0;
  double total_cpu = 0.0;
};

struct FlowResult {
  sfq::Netlist mapped;                   // pre-retiming network
  retime::MaterializeResult materialized;
  FlowStats stats;
  StageTimes times;
};

/// Runs the full flow on `aig`.  Throws ContractError if any internal
/// validity check fails (timing, equivalence).
///
/// Compatibility wrapper: executes the default `FlowEngine` pipeline
/// (flow_engine.hpp) with fresh scratch state, so results are bit-for-bit
/// identical to the pre-engine monolithic implementation.  Callers running
/// the flow more than once should hold a `FlowEngine` instead.
FlowResult run_flow(const Aig& aig, const FlowParams& params = {});

/// Formats a Table-I-style row:
/// `name  found used  logic split  dffs  area  stages depth`.
std::string format_stats_row(const std::string& name, const FlowStats& s);

}  // namespace t1map::t1
