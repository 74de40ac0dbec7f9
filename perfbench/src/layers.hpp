/// \file layers.hpp
/// \brief The default pipeline re-enacted through the public layer calls,
/// one span per call — the traced run's flow.
///
/// `run_layers` makes the calls `FlowEngine`'s passes make, in the same
/// order and with the same arguments (serial, no cone memo):
/// `map_to_sfq`, `detect_t1`, `apply_t1_rewrite`, `assign_stages`,
/// `insert_dffs`, `check_timing`, `find_sim_mismatch` and, when asked,
/// `check_equivalence`.  Its `EngineResult` must therefore carry the same
/// statistics as a cold `FlowEngine` run, which the workloads check.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cut/cut_enum.hpp"
#include "retime/stage_assign.hpp"
#include "sat/solver.hpp"
#include "sfq/netlist_sim.hpp"
#include "t1/flow_engine.hpp"
#include "t1/t1_detect.hpp"
#include "trace.hpp"

namespace perfbench {

/// Deterministic work counters of the layer calls.  Equal inputs must give
/// equal counters on every run and every machine.
struct LayerCounters {
  std::int64_t cuts = 0;             // standalone cut enumeration
  std::int64_t map_cells = 0;        // sfq::MapStats::cells
  std::int64_t t1_found = 0;
  std::int64_t t1_used = 0;
  std::int64_t rewrite_area_delta = 0;
  std::int64_t dffs_regular = 0;     // retime::count_dffs
  std::int64_t dffs_t1 = 0;
  std::int64_t cec_calls = 0;
  std::int64_t cec_proved = 0;
  std::int64_t cec_unknown = 0;
  std::int64_t cec_conflicts = 0;    // solver counters, after minus before
  std::int64_t cec_decisions = 0;
  std::int64_t cec_propagations = 0;
  std::int64_t codec_bytes = 0;      // serve::encode_result sizes

  friend bool operator==(const LayerCounters&, const LayerCounters&) = default;

  /// (name, value) pairs in a fixed order, names as reported.
  std::vector<std::pair<std::string, std::int64_t>> named() const;
};

/// Reusable allocations of the layer calls (the counterpart of
/// `t1::FlowScratch`).
struct LayerScratch {
  t1map::CutWorkspace cuts;
  t1map::t1::DetectScratch detect;
  t1map::sat::Solver solver;
  t1map::sfq::SimScratch sim;
};

struct LayerRun {
  t1map::t1::EngineResult result;
  /// Stage assignment of `result.mapped` (before DFF materialization).
  t1map::retime::StageAssignment assignment;
};

/// Runs the default pipeline (`with_cec` appends SAT CEC) on `aig` through
/// the layer calls, recording one span per call under a root span "flow".
LayerRun run_layers(const t1map::Aig& aig, const t1map::t1::FlowParams& params,
                    bool with_cec, LayerScratch& scratch, Tracer& tracer,
                    LayerCounters& counters);

/// Calls that are not part of the pipeline, recorded under a root span
/// "probe" so they stay out of the flow's time: a standalone cut
/// enumeration of `aig` (`cut.enum`) and `count_dffs` over `run`.
void run_probes(const t1map::Aig& aig, const t1map::t1::FlowParams& params,
                const LayerRun& run, LayerScratch& scratch, Tracer& tracer,
                LayerCounters& counters);

}  // namespace perfbench
