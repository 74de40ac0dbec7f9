#include "layers.hpp"

#include "retime/dff_insert.hpp"
#include "retime/timing_check.hpp"
#include "sat/cec.hpp"
#include "sfq/mapper.hpp"
#include "t1/t1_rewrite.hpp"

namespace perfbench {

namespace t1 = t1map::t1;
namespace sfq = t1map::sfq;
namespace retime = t1map::retime;
namespace sat = t1map::sat;

std::vector<std::pair<std::string, std::int64_t>> LayerCounters::named()
    const {
  return {
      {"cut.cuts", cuts},
      {"sfq.map.cells", map_cells},
      {"t1.detect.found", t1_found},
      {"t1.detect.used", t1_used},
      {"t1.rewrite.cell_area_delta", rewrite_area_delta},
      {"retime.stage.dffs_regular", dffs_regular},
      {"retime.stage.dffs_t1", dffs_t1},
      {"sat.cec.calls", cec_calls},
      {"sat.cec.proved", cec_proved},
      {"sat.cec.unknown", cec_unknown},
      {"sat.cec.conflicts", cec_conflicts},
      {"sat.cec.decisions", cec_decisions},
      {"sat.cec.propagations", cec_propagations},
      {"serve.codec.bytes", codec_bytes},
  };
}

namespace {

/// One `check_equivalence` call under a `sat.cec` span, with the solver's
/// counters read before and after it.
sat::CecResult::Verdict timed_cec(const t1map::Aig& aig,
                                  const sfq::Netlist& ntk,
                                  std::int64_t conflict_limit,
                                  sat::Solver& solver, Tracer& tracer,
                                  LayerCounters& counters) {
  const Tracer::Span span(tracer, "sat.cec");
  const std::int64_t conflicts = solver.num_conflicts();
  const std::int64_t decisions = solver.num_decisions();
  const std::int64_t propagations = solver.num_propagations();
  const sat::CecResult cec =
      sat::check_equivalence(aig, ntk, conflict_limit, solver);
  counters.cec_calls += 1;
  counters.cec_conflicts += solver.num_conflicts() - conflicts;
  counters.cec_decisions += solver.num_decisions() - decisions;
  counters.cec_propagations += solver.num_propagations() - propagations;
  if (cec.verdict == sat::CecResult::Verdict::kEquivalent) {
    counters.cec_proved += 1;
  } else if (cec.verdict == sat::CecResult::Verdict::kUnknown) {
    counters.cec_unknown += 1;
  }
  return cec.verdict;
}

}  // namespace

LayerRun run_layers(const t1map::Aig& aig, const t1::FlowParams& params,
                    bool with_cec, LayerScratch& scratch, Tracer& tracer,
                    LayerCounters& counters) {
  LayerRun run;
  t1::EngineResult& r = run.result;
  const Tracer::Span flow(tracer, "flow");

  {
    const Tracer::Span span(tracer, "sfq.map");
    sfq::MapStats map_stats;
    r.mapped = sfq::map_to_sfq(aig, params.mapper, &map_stats, &scratch.cuts);
    r.mapped.check_well_formed();
    counters.map_cells += map_stats.cells;
  }

  if (params.use_t1) {
    t1::DetectResult det;
    {
      const Tracer::Span span(tracer, "t1.detect");
      det = t1::detect_t1(r.mapped, params.detect, &scratch.cuts,
                          &scratch.detect);
    }
    r.stats.t1_found = det.found;
    r.stats.t1_used = det.used;
    counters.t1_found += det.found;
    counters.t1_used += det.used;
    if (!det.accepted.empty()) {
      const Tracer::Span span(tracer, "t1.rewrite");
      t1::RewriteStats rw;
      r.mapped = t1::apply_t1_rewrite(r.mapped, det.accepted, &rw);
      counters.rewrite_area_delta += rw.cell_area_delta;
    }
  }

  {
    const Tracer::Span span(tracer, "retime.stage");
    run.assignment = retime::assign_stages(
        r.mapped, retime::StageParams{params.num_phases, params.optimize_stages,
                                      params.stage_sweeps});
  }

  {
    const Tracer::Span span(tracer, "retime.dff");
    r.materialized = retime::insert_dffs(r.mapped, run.assignment);
    r.has_materialized = true;
    // The Table-I statistics, computed as the dff pass computes them.
    const sfq::Netlist& mat = r.materialized.netlist;
    t1::FlowStats& s = r.stats;
    s.dffs = mat.count_kind(sfq::CellKind::kDff);
    s.area_jj = mat.cell_area_jj_total();
    s.depth_cycles = r.materialized.stages.depth_cycles();
    s.num_stages = r.materialized.stages.sigma_po;
    s.t1_cores = mat.num_t1();
    s.splitters = mat.splitter_count();
    s.logic_cells = 0;
    for (std::uint32_t v = 0; v < mat.num_nodes(); ++v) {
      if (sfq::cell_is_logic(mat.kind(v))) ++s.logic_cells;
    }
  }

  {
    const Tracer::Span span(tracer, "retime.timing");
    if (!retime::check_timing(r.materialized.netlist, r.materialized.stages)
             .ok) {
      r.status = t1::FlowStatus::kTimingViolation;
      return run;
    }
  }

  if (params.verify_rounds > 0) {
    const Tracer::Span span(tracer, "sfq.sim");
    if (sfq::find_sim_mismatch(aig, r.materialized.netlist,
                               params.verify_rounds, /*seed=*/1, &scratch.sim)
            .has_value()) {
      r.status = t1::FlowStatus::kNotEquivalent;
      return run;
    }
  }

  if (with_cec) {
    const sat::CecResult::Verdict verdict =
        timed_cec(aig, r.materialized.netlist, params.cec_conflict_limit,
                  scratch.solver, tracer, counters);
    r.cec = t1::cec_verdict_name(verdict);
    if (verdict == sat::CecResult::Verdict::kNotEquivalent) {
      r.status = t1::FlowStatus::kNotEquivalent;
    }
  }
  return run;
}

void run_probes(const t1map::Aig& aig, const t1::FlowParams& params,
                const LayerRun& run, LayerScratch& scratch, Tracer& tracer,
                LayerCounters& counters) {
  const Tracer::Span probe(tracer, "probe");
  {
    const Tracer::Span span(tracer, "cut.enum");
    t1map::enumerate_cuts_into(aig, params.mapper.cuts, scratch.cuts);
  }
  counters.cuts += static_cast<std::int64_t>(scratch.cuts.cuts.total_cuts());
  if (run.result.has_materialized) {
    const retime::DffCount dffs =
        retime::count_dffs(run.result.mapped, run.assignment);
    counters.dffs_regular += dffs.regular;
    counters.dffs_t1 += dffs.t1;
  }
}

}  // namespace perfbench
