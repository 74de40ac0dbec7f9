#include "t1/flow_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <utility>

#include "aig/aig_digest.hpp"
#include "common/worker_pool.hpp"
#include "retime/timing_check.hpp"
#include "sfq/netlist_digest.hpp"
#include "t1/pass_memo.hpp"
#include "t1/t1_detect.hpp"
#include "t1/t1_rewrite.hpp"

namespace t1map::t1 {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The one reuse rule of the map, t1 and stage passes (pass_memo.hpp).
/// Without a memo it computes into `out`.  With one, it copies out the
/// slot's result when the slot was filled under `make_key()`, and otherwise
/// computes and stores a copy.  Returns true on a hit.
template <class Result, class MakeKey, class Compute>
bool reuse_or_compute(PassMemo* memo, PassSlot<Result> PassMemo::*slot_of,
                      MakeKey make_key, Compute compute, Result& out) {
  if (memo == nullptr) {
    out = compute();
    return false;
  }
  PassSlot<Result>& slot = memo->*slot_of;
  const PassKey key = make_key();
  if (slot.valid && slot.key == key) {
    out = slot.result;
    return true;
  }
  out = compute();
  slot.result = out;
  slot.key = key;
  slot.valid = true;
  return false;
}

long count_logic_cells(const sfq::Netlist& ntk) {
  long count = 0;
  for (std::uint32_t v = 0; v < ntk.num_nodes(); ++v) {
    if (sfq::cell_is_logic(ntk.kind(v))) ++count;
  }
  return count;
}

/// The state one run evolves: what the passes read, the stage assignment
/// that only stage and dff use, and the result they fill.
struct FlowContext {
  const Aig& aig;
  const FlowParams& params;
  FlowScratch& scratch;  // the allocations of the worker running the flow
  /// The previous result of the map, t1 and stage passes (pass_memo.hpp),
  /// or null for a cold run.  The engine passes its memo only to runs on
  /// worker 0 alone: the memo is single-threaded state.
  PassMemo* memo;
  retime::StageAssignment assignment;
  EngineResult result;

  /// Records a structured failure of check `pass` and returns false, which
  /// stops the run.
  bool fail(FlowStatus failure, const char* pass, std::string message) {
    result.status = failure;
    result.diagnostics.error(pass, std::move(message));
    return false;
  }
};

// --- Passes ------------------------------------------------------------------

/// Technology mapping (AIG → SFQ cells), including cut enumeration.
void map_pass(FlowContext& ctx) {
  EngineResult& r = ctx.result;
  const bool reused = reuse_or_compute(
      ctx.memo, &PassMemo::map,
      [&] {
        return PassKey{aig_digest::identity_digest(ctx.aig),
                       sfq::mapper_params_key(ctx.params.mapper)};
      },
      [&] {
        sfq::MapStats map_stats;
        return sfq::map_to_sfq(ctx.aig, ctx.params.mapper, &map_stats,
                               &ctx.scratch.cuts);
      },
      r.mapped);
  r.reuse.map_cones_total = ctx.aig.num_ands();
  r.reuse.map_cones_reused = reused ? r.reuse.map_cones_total : 0;
  r.mapped.check_well_formed();
}

/// T1 detection + substitution (no-op when `params.use_t1` is false).
void t1_pass(FlowContext& ctx) {
  if (!ctx.params.use_t1) return;
  EngineResult& r = ctx.result;
  DetectResult det;
  const bool reused = reuse_or_compute(
      ctx.memo, &PassMemo::t1,
      [&] {
        return PassKey{sfq::netlist_identity_digest(r.mapped),
                       detect_params_key(ctx.params.detect)};
      },
      [&] {
        return detect_t1(r.mapped, ctx.params.detect, &ctx.scratch.cuts,
                         &ctx.scratch.t1_detect);
      },
      det);
  r.reuse.t1_cones_total =
      static_cast<std::uint32_t>(count_logic_cells(r.mapped));
  r.reuse.t1_cones_reused = reused ? r.reuse.t1_cones_total : 0;
  r.reuse.t1_exact = reused;
  r.stats.t1_found = det.found;
  r.stats.t1_used = det.used;
  if (!det.accepted.empty()) {
    RewriteStats rw;
    r.mapped = apply_t1_rewrite(r.mapped, det.accepted, &rw);
  }
}

/// Multiphase stage assignment (§II-B).
void stage_pass(FlowContext& ctx) {
  const retime::StageParams stage_params{
      ctx.params.num_phases, ctx.params.optimize_stages,
      ctx.params.stage_sweeps};
  ctx.result.reuse.stage_spliced = reuse_or_compute(
      ctx.memo, &PassMemo::stage,
      [&] {
        return PassKey{sfq::netlist_identity_digest(ctx.result.mapped),
                       retime::stage_params_key(stage_params)};
      },
      [&] { return retime::assign_stages(ctx.result.mapped, stage_params); },
      ctx.assignment);
}

/// DFF materialization (§II-C) + Table-I statistics.
void dff_pass(FlowContext& ctx) {
  EngineResult& r = ctx.result;
  r.materialized = retime::insert_dffs(r.mapped, ctx.assignment);
  r.has_materialized = true;

  const sfq::Netlist& mat = r.materialized.netlist;
  FlowStats& s = r.stats;
  s.dffs = mat.count_kind(sfq::CellKind::kDff);
  s.area_jj = mat.cell_area_jj_total();
  s.depth_cycles = r.materialized.stages.depth_cycles();
  s.num_stages = r.materialized.stages.sigma_po;
  s.t1_cores = mat.num_t1();
  s.splitters = mat.splitter_count();
  s.logic_cells = count_logic_cells(mat);
}

// --- Checks ------------------------------------------------------------------

/// Independent timing validation of the materialized netlist.
bool timing_check(FlowContext& ctx) {
  const retime::MaterializeResult& mat = ctx.result.materialized;
  const retime::TimingReport timing = retime::check_timing(
      mat.netlist, mat.stages);
  if (timing.ok) return true;
  return ctx.fail(FlowStatus::kTimingViolation, "timing",
                  "flow produced a timing-illegal netlist: " +
                      (timing.violations.empty() ? std::string("?")
                                                 : timing.violations.front()));
}

/// Random-simulation equivalence against the source AIG
/// (`params.verify_rounds` rounds; no-op when 0).
bool sim_check(FlowContext& ctx) {
  if (ctx.params.verify_rounds <= 0) return true;
  const std::optional<sfq::Mismatch> mismatch = sfq::find_sim_mismatch(
      ctx.aig, ctx.result.materialized.netlist, ctx.params.verify_rounds,
      /*seed=*/1, &ctx.scratch.sim);
  if (!mismatch.has_value()) return true;
  return ctx.fail(FlowStatus::kNotEquivalent, "sim",
                  "flow result is not functionally equivalent to the source "
                  "AIG (first mismatch on PO " +
                      std::to_string(mismatch->po_index) + ")");
}

/// CEC of the materialized netlist against the source AIG (the sweep of
/// sat/cec.hpp); records the verdict in `result.cec` and the sweep's work
/// counters in an info diagnostic.
void cec_check(FlowContext& ctx) {
  EngineResult& r = ctx.result;
  const sat::CecResult cec =
      sat::check_equivalence(ctx.aig, r.materialized.netlist,
                             ctx.params.cec_conflict_limit, ctx.scratch.solver);
  r.cec = cec_verdict_name(cec.verdict);
  r.diagnostics.info(
      "cec", std::to_string(cec.cells_local) + " cells proved locally, " +
                 std::to_string(cec.cells_sat) + " by SAT, " +
                 std::to_string(cec.hints_refuted) + " hints refuted, " +
                 std::to_string(cec.po_queries) + " PO queries, " +
                 std::to_string(cec.conflicts) + " conflicts");
  if (cec.verdict == sat::CecResult::Verdict::kNotEquivalent) {
    ctx.fail(FlowStatus::kNotEquivalent, "cec",
             "SAT CEC refuted equivalence: mapped netlist differs from the "
             "source AIG");
  } else if (cec.verdict == sat::CecResult::Verdict::kUnknown) {
    r.diagnostics.warning(
        "cec", "CEC inconclusive within the conflict limit (" +
                   std::to_string(cec.conflicts) + " conflicts)");
  }
}

}  // namespace

// --- Table-I configurations --------------------------------------------------

FlowParams table_params(TableConfig config, int phases) {
  T1MAP_REQUIRE(config != TableConfig::kT1 || phases >= 3,
                "the t1 configuration needs at least 3 phases, got " +
                    std::to_string(phases));
  FlowParams params;
  params.num_phases = config == TableConfig::k1phi ? 1 : phases;
  params.use_t1 = config == TableConfig::kT1;
  return params;
}

std::string config_key(TableConfig config, int phases) {
  switch (config) {
    case TableConfig::k1phi: return "baseline_1phi";
    case TableConfig::kNphi:
      return "baseline_" + std::to_string(phases) + "phi";
    case TableConfig::kT1: return "t1";
  }
  return "?";
}

// --- Diagnostics -------------------------------------------------------------

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

const char* flow_status_name(FlowStatus status) {
  switch (status) {
    case FlowStatus::kOk: return "ok";
    case FlowStatus::kTimingViolation: return "timing_violation";
    case FlowStatus::kNotEquivalent: return "not_equivalent";
  }
  return "?";
}

const char* cec_verdict_name(sat::CecResult::Verdict verdict) {
  switch (verdict) {
    case sat::CecResult::Verdict::kEquivalent: return "equivalent";
    case sat::CecResult::Verdict::kNotEquivalent: return "not_equivalent";
    case sat::CecResult::Verdict::kUnknown: return "unknown";
  }
  return "unknown";
}

void Diagnostics::add(Severity severity, std::string pass,
                      std::string message) {
  entries_.push_back(
      Diagnostic{severity, std::move(pass), std::move(message)});
}

void Diagnostics::info(std::string pass, std::string message) {
  add(Severity::kInfo, std::move(pass), std::move(message));
}

void Diagnostics::warning(std::string pass, std::string message) {
  add(Severity::kWarning, std::move(pass), std::move(message));
}

void Diagnostics::error(std::string pass, std::string message) {
  add(Severity::kError, std::move(pass), std::move(message));
}

bool Diagnostics::has_errors() const {
  for (const Diagnostic& d : entries_) {
    if (d.severity == Severity::kError) return true;
  }
  return false;
}

std::string Diagnostics::first_error() const {
  for (const Diagnostic& d : entries_) {
    if (d.severity == Severity::kError) return d.message;
  }
  return {};
}

std::string Diagnostics::to_string() const {
  std::ostringstream os;
  for (const Diagnostic& d : entries_) {
    os << severity_name(d.severity) << " [" << d.pass << "] " << d.message
       << '\n';
  }
  return os.str();
}

// --- Engine ------------------------------------------------------------------

FlowEngine::FlowEngine() : FlowEngine(Pipeline::default_flow()) {}

FlowEngine::FlowEngine(Pipeline pipeline) : pipeline_(pipeline), workers_(1) {
  set_incremental(true);
}

FlowEngine::~FlowEngine() = default;

void FlowEngine::set_incremental(bool enabled) {
  if (!enabled) {
    memo_.reset();
  } else if (memo_ == nullptr) {
    memo_ = std::make_unique<PassMemo>();
  }
}

void FlowEngine::set_threads(int threads) {
  threads = std::max(1, threads);
  if (threads == this->threads()) return;
  workers_.resize(static_cast<std::size_t>(threads));
  pool_ = threads > 1 ? std::make_unique<WorkerPool>(threads) : nullptr;
}

EngineResult FlowEngine::run_with(const Aig& aig, const FlowParams& params,
                                  FlowScratch& scratch, PassMemo* memo) const {
  T1MAP_REQUIRE(params.num_phases >= 1, "need at least one phase");
  T1MAP_REQUIRE(!params.use_t1 || params.num_phases >= 3,
                "the T1 flow needs at least 3 phases (input separation)");

  FlowContext ctx{aig, params, scratch, memo, {}, {}};
  StageTimes& times = ctx.result.times;
  const Clock::time_point flow_start = Clock::now();
  Clock::time_point lap_start = flow_start;
  // Seconds since the previous lap.
  const auto lap = [&lap_start] {
    const Clock::time_point now = Clock::now();
    const double seconds = seconds_between(lap_start, now);
    lap_start = now;
    return seconds;
  };

  map_pass(ctx);
  times.map = lap();
  t1_pass(ctx);
  times.t1_detect = lap();
  stage_pass(ctx);
  times.stage_assign = lap();
  dff_pass(ctx);
  times.dff_insert = lap();
  const bool checks_ok = timing_check(ctx) && sim_check(ctx);
  times.self_check = lap();
  if (checks_ok && pipeline_.with_cec) {
    cec_check(ctx);
    times.cec = lap();
  }
  times.total_wall = seconds_between(flow_start, Clock::now());
  return std::move(ctx.result);
}

EngineResult FlowEngine::run(const Aig& aig, const FlowParams& params) {
  const FlowJob job{&aig, params};
  return std::move(run_many(std::span(&job, 1)).front());
}

std::vector<EngineResult> FlowEngine::run_many(std::span<const FlowJob> jobs) {
  for (const FlowJob& job : jobs) {
    T1MAP_REQUIRE(job.aig != nullptr, "run_many: null AIG in batch");
  }
  std::vector<EngineResult> results(jobs.size());
  // One thread or one job runs inline on worker 0, the only one that
  // reuses from the pass memo.
  if (threads() == 1 || jobs.size() <= 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      results[i] = run_with(*jobs[i].aig, jobs[i].params, workers_.front(),
                            memo_.get());
    }
    return results;
  }
  // Otherwise each worker claims whole jobs until none is left.
  std::atomic<std::size_t> next{0};
  pool_->run([&](int worker) {
    FlowScratch& scratch = workers_[static_cast<std::size_t>(worker)];
    for (std::size_t i = next++; i < jobs.size(); i = next++) {
      results[i] = run_with(*jobs[i].aig, jobs[i].params, scratch,
                            /*memo=*/nullptr);
    }
  });
  return results;
}

}  // namespace t1map::t1
