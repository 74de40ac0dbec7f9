#include "t1/flow_engine.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "aig/aig_digest.hpp"
#include "common/hash_mix.hpp"
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

std::uint64_t absorb(std::uint64_t acc, std::uint64_t value) {
  return mix64(acc ^ value);
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

}  // namespace

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

void FlowContext::fail(FlowStatus failure, std::string pass,
                       std::string message) {
  T1MAP_ASSERT(failure != FlowStatus::kOk);
  status = failure;
  diagnostics.error(std::move(pass), std::move(message));
}

// --- Passes ------------------------------------------------------------------

bool MapPass::run(FlowContext& ctx) const {
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
      ctx.mapped);
  ctx.reuse.map_cones_total = ctx.aig.num_ands();
  ctx.reuse.map_cones_reused = reused ? ctx.reuse.map_cones_total : 0;
  ctx.mapped.check_well_formed();
  ctx.has_mapped = true;
  return true;
}

bool T1DetectPass::run(FlowContext& ctx) const {
  T1MAP_REQUIRE(ctx.has_mapped, "T1DetectPass: no mapped netlist (run map "
                                "before t1)");
  if (!ctx.params.use_t1) return true;  // disabled by configuration
  T1MAP_REQUIRE(ctx.params.num_phases >= 3,
                "the T1 flow needs at least 3 phases (input separation)");
  DetectResult det;
  const bool reused = reuse_or_compute(
      ctx.memo, &PassMemo::t1,
      [&] {
        return PassKey{sfq::netlist_identity_digest(ctx.mapped),
                       detect_params_key(ctx.params.detect)};
      },
      [&] {
        return detect_t1(ctx.mapped, ctx.params.detect, &ctx.scratch.cuts,
                         &ctx.scratch.t1_detect);
      },
      det);
  ctx.reuse.t1_cones_total =
      static_cast<std::uint32_t>(count_logic_cells(ctx.mapped));
  ctx.reuse.t1_cones_reused = reused ? ctx.reuse.t1_cones_total : 0;
  ctx.reuse.t1_exact = reused;
  ctx.stats.t1_found = det.found;
  ctx.stats.t1_used = det.used;
  if (!det.accepted.empty()) {
    RewriteStats rw;
    ctx.mapped = apply_t1_rewrite(ctx.mapped, det.accepted, &rw);
  }
  return true;
}

bool StageAssignPass::run(FlowContext& ctx) const {
  T1MAP_REQUIRE(ctx.has_mapped, "StageAssignPass: no mapped netlist (run map "
                                "before stage)");
  const retime::StageParams stage_params{
      ctx.params.num_phases, ctx.params.optimize_stages,
      ctx.params.stage_sweeps};
  ctx.reuse.stage_spliced = reuse_or_compute(
      ctx.memo, &PassMemo::stage,
      [&] {
        return PassKey{sfq::netlist_identity_digest(ctx.mapped),
                       retime::stage_params_key(stage_params)};
      },
      [&] { return retime::assign_stages(ctx.mapped, stage_params); },
      ctx.assignment);
  ctx.has_assignment = true;
  return true;
}

bool DffInsertPass::run(FlowContext& ctx) const {
  T1MAP_REQUIRE(ctx.has_assignment, "DffInsertPass: no stage assignment (run "
                                    "stage before dff)");
  ctx.materialized = retime::insert_dffs(ctx.mapped, ctx.assignment);
  ctx.has_materialized = true;

  // Table-I statistics of the materialized result.
  const sfq::Netlist& mat = ctx.materialized.netlist;
  FlowStats& s = ctx.stats;
  s.dffs = mat.count_kind(sfq::CellKind::kDff);
  s.area_jj = mat.cell_area_jj_total();
  s.depth_cycles = ctx.materialized.stages.depth_cycles();
  s.num_stages = ctx.materialized.stages.sigma_po;
  s.t1_cores = mat.num_t1();
  s.splitters = mat.splitter_count();
  s.logic_cells = count_logic_cells(mat);
  return true;
}

bool TimingCheckPass::run(FlowContext& ctx) const {
  T1MAP_REQUIRE(ctx.has_materialized, "TimingCheckPass: no materialized "
                                      "netlist (run dff before timing)");
  const retime::TimingReport timing = retime::check_timing(
      ctx.materialized.netlist, ctx.materialized.stages);
  if (!timing.ok) {
    ctx.fail(FlowStatus::kTimingViolation, name(),
             "flow produced a timing-illegal netlist: " +
                 (timing.violations.empty() ? std::string("?")
                                            : timing.violations.front()));
    return false;
  }
  return true;
}

bool SimEquivPass::run(FlowContext& ctx) const {
  T1MAP_REQUIRE(ctx.has_materialized, "SimEquivPass: no materialized netlist "
                                      "(run dff before sim)");
  if (ctx.params.verify_rounds <= 0) return true;
  const std::optional<sfq::Mismatch> mismatch = sfq::find_sim_mismatch(
      ctx.aig, ctx.materialized.netlist, ctx.params.verify_rounds,
      /*seed=*/1, &ctx.scratch.sim);
  if (mismatch.has_value()) {
    ctx.fail(FlowStatus::kNotEquivalent, name(),
             "flow result is not functionally equivalent to the source AIG "
             "(first mismatch on PO " +
                 std::to_string(mismatch->po_index) + ")");
    return false;
  }
  return true;
}

bool SatCecPass::run(FlowContext& ctx) const {
  T1MAP_REQUIRE(ctx.has_materialized, "SatCecPass: no materialized netlist "
                                      "(run dff before cec)");
  const sat::CecResult result =
      sat::check_equivalence(ctx.aig, ctx.materialized.netlist,
                             ctx.params.cec_conflict_limit,
                             ctx.scratch.solver);
  ctx.cec = cec_verdict_name(result.verdict);
  ctx.diagnostics.info(
      name(), std::to_string(result.cells_local) + " cells proved locally, " +
                  std::to_string(result.cells_sat) + " by SAT, " +
                  std::to_string(result.hints_refuted) +
                  " hints refuted, " + std::to_string(result.po_queries) +
                  " PO queries, " + std::to_string(result.conflicts) +
                  " conflicts");
  if (result.verdict == sat::CecResult::Verdict::kNotEquivalent) {
    ctx.fail(FlowStatus::kNotEquivalent, name(),
             "SAT CEC refuted equivalence: mapped netlist differs from the "
             "source AIG");
    return false;
  }
  if (result.verdict == sat::CecResult::Verdict::kUnknown) {
    ctx.diagnostics.warning(
        name(), "CEC inconclusive within the conflict limit (" +
                    std::to_string(result.conflicts) + " conflicts)");
  }
  return true;
}

// --- Pipeline ----------------------------------------------------------------

namespace {

/// The single name -> factory registry `make_pass` and `known_passes`
/// both derive from, so the two can never drift.
struct PassEntry {
  const char* name;
  std::unique_ptr<Pass> (*make)();
};

template <class P>
std::unique_ptr<Pass> make_concrete() {
  return std::make_unique<P>();
}

constexpr PassEntry kPassRegistry[] = {
    {"map", &make_concrete<MapPass>},
    {"t1", &make_concrete<T1DetectPass>},
    {"stage", &make_concrete<StageAssignPass>},
    {"dff", &make_concrete<DffInsertPass>},
    {"timing", &make_concrete<TimingCheckPass>},
    {"sim", &make_concrete<SimEquivPass>},
    {"cec", &make_concrete<SatCecPass>},
};

}  // namespace

std::unique_ptr<Pass> make_pass(const std::string& name) {
  for (const PassEntry& entry : kPassRegistry) {
    if (name == entry.name) return entry.make();
  }
  return nullptr;
}

Pipeline& Pipeline::add(std::unique_ptr<Pass> pass) {
  T1MAP_REQUIRE(pass != nullptr, "Pipeline::add: null pass");
  passes_.push_back(std::move(pass));
  return *this;
}

std::string Pipeline::spec() const {
  std::string out;
  for (const auto& pass : passes_) {
    if (!out.empty()) out += ',';
    out += pass->name();
  }
  return out;
}

Pipeline Pipeline::default_flow(bool with_cec) {
  Pipeline p;
  p.add(std::make_unique<MapPass>())
      .add(std::make_unique<T1DetectPass>())
      .add(std::make_unique<StageAssignPass>())
      .add(std::make_unique<DffInsertPass>())
      .add(std::make_unique<TimingCheckPass>())
      .add(std::make_unique<SimEquivPass>());
  if (with_cec) p.add(std::make_unique<SatCecPass>());
  return p;
}

Pipeline Pipeline::parse(const std::string& spec) {
  // Errors are thrown directly (no T1MAP_REQUIRE source-location prefix):
  // the CLI surfaces this text verbatim in its usage error.
  Pipeline p;
  std::vector<std::string> seen;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string name = spec.substr(begin, end - begin);
    std::unique_ptr<Pass> pass = make_pass(name);
    if (pass == nullptr) {
      throw ContractError("unknown pass '" + name + "' in '" + spec + "'");
    }
    // Ordering is statically checkable for spec-built pipelines, so an
    // ill-ordered list fails here as a clean message instead of a run-time
    // contract violation mid-flow.
    if (const char* needed = pass->requires_pass()) {
      bool satisfied = false;
      for (const std::string& prior : seen) satisfied |= prior == needed;
      if (!satisfied) {
        throw ContractError("pass '" + name + "' requires '" + needed +
                            "' earlier in the pipeline '" + spec + "'");
      }
    }
    seen.push_back(name);
    p.add(std::move(pass));
    begin = end + 1;
  }
  return p;
}

const std::vector<std::string>& Pipeline::known_passes() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const PassEntry& entry : kPassRegistry) out.emplace_back(entry.name);
    return out;
  }();
  return names;
}

// --- Result-caching hook -----------------------------------------------------

std::uint64_t params_fingerprint(const FlowParams& params) {
  // Every field that can change the mapped netlist, the reported
  // statistics, or a recorded check verdict takes part; adding a FlowParams
  // field without extending this list is the classic stale-cache bug, so
  // keep the two in lockstep.
  std::uint64_t h = 0xC4F1A9B2D6E85301ull;  // domain seed
  h = absorb(h, static_cast<std::uint64_t>(params.num_phases));
  h = absorb(h, params.use_t1 ? 1 : 0);
  h = absorb(h, params.optimize_stages ? 1 : 0);
  h = absorb(h, static_cast<std::uint64_t>(params.stage_sweeps));
  h = absorb(h, static_cast<std::uint64_t>(params.detect.cuts.k));
  h = absorb(h, static_cast<std::uint64_t>(params.detect.cuts.max_cuts));
  h = absorb(h, params.detect.allow_input_negation ? 1 : 0);
  h = absorb(h, static_cast<std::uint64_t>(params.detect.min_gain));
  h = absorb(h, static_cast<std::uint64_t>(params.mapper.cuts.k));
  h = absorb(h, static_cast<std::uint64_t>(params.mapper.cuts.max_cuts));
  h = absorb(h, static_cast<std::uint64_t>(params.verify_rounds));
  h = absorb(h, static_cast<std::uint64_t>(params.cec_conflict_limit));
  return h;
}

std::uint64_t fingerprint_string(std::string_view text) {
  std::uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a offset basis
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

// --- Engine ------------------------------------------------------------------

FlowEngine::FlowEngine() : FlowEngine(Pipeline::default_flow()) {}

FlowEngine::FlowEngine(Pipeline pipeline)
    : pipeline_(std::move(pipeline)), workers_(1) {
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

void FlowEngine::set_pipeline(Pipeline pipeline) {
  pipeline_ = std::move(pipeline);
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
  T1MAP_REQUIRE(!pipeline_.empty(), "FlowEngine: empty pipeline");

  FlowContext ctx(aig, params, scratch, memo);

  const Clock::time_point flow_start = Clock::now();
  for (std::size_t i = 0; i < pipeline_.size(); ++i) {
    const Pass& pass = pipeline_[i];
    const Clock::time_point t0 = Clock::now();
    const bool keep_going = pass.run(ctx);
    ctx.times.*pass.time_slot() += seconds_between(t0, Clock::now());
    if (!keep_going) {
      T1MAP_ASSERT(ctx.status != FlowStatus::kOk);
      break;
    }
  }
  ctx.times.total_wall = seconds_between(flow_start, Clock::now());

  EngineResult result;
  result.status = ctx.status;
  result.mapped = std::move(ctx.mapped);
  result.has_materialized = ctx.has_materialized;
  result.materialized = std::move(ctx.materialized);
  result.stats = ctx.stats;
  result.times = ctx.times;
  result.diagnostics = std::move(ctx.diagnostics);
  result.reuse = ctx.reuse;
  result.cec = std::move(ctx.cec);
  return result;
}

EngineResult FlowEngine::run(const Aig& aig, const FlowParams& params) {
  const FlowJob job{&aig, params, {}};
  return std::move(run_many(std::span(&job, 1)).front());
}

std::vector<EngineResult> FlowEngine::run_many(
    std::span<const FlowJob> jobs, RunCache* cache,
    std::vector<std::uint8_t>* cached) {
  for (const FlowJob& job : jobs) {
    T1MAP_REQUIRE(job.aig != nullptr, "run_many: null AIG in batch");
  }
  std::vector<EngineResult> results(jobs.size());
  if (cached != nullptr) cached->assign(jobs.size(), 0);

  // Partition the batch: cache hits are filled immediately, the first
  // occurrence of each unseen key is computed, and later duplicates of a
  // computed key become aliases served after it.  Without a cache every
  // job computes.
  std::vector<std::size_t> compute;
  std::vector<std::pair<std::size_t, std::size_t>> alias;  // (index, rep)
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (cache != nullptr) {
      if (cache->lookup(jobs[i].key, results[i])) {
        if (cached != nullptr) (*cached)[i] = 1;
        continue;
      }
      const auto rep =
          std::find_if(compute.begin(), compute.end(), [&](std::size_t m) {
            return jobs[m].key == jobs[i].key;
          });
      if (rep != compute.end()) {
        alias.emplace_back(i, *rep);
        continue;
      }
    }
    compute.push_back(i);
  }

  if (!compute.empty()) {
    // Whole jobs go to the workers.  One thread or one job to compute runs
    // inline on worker 0, the only one that reuses from the pass memo.
    const bool inline_run = threads() == 1 || compute.size() == 1;
    PassMemo* memo = inline_run ? memo_.get() : nullptr;
    for_each_chunk(inline_run ? nullptr : pool_.get(), compute.size(),
                   /*grain=*/1,
                   [&](std::size_t begin, std::size_t end, int worker) {
                     for (std::size_t c = begin; c < end; ++c) {
                       const FlowJob& job = jobs[compute[c]];
                       results[compute[c]] = run_with(
                           *job.aig, job.params,
                           workers_[static_cast<std::size_t>(worker)], memo);
                     }
                   });
  }
  if (cache == nullptr) return results;

  // Only ok-results are offered: a failed run carries partial state that
  // must not masquerade as a mapped design on a later hit, and an
  // inconclusive CEC must not come back as a hit that looks verified.
  for (const std::size_t i : compute) {
    if (results[i].ok() && results[i].cec != "unknown") {
      cache->store(jobs[i].key, results[i]);
    }
  }
  // Aliases re-read through the cache so hit counters stay truthful; a
  // representative that was never stored is copied directly instead.
  for (const auto& [i, rep] : alias) {
    if (cache->lookup(jobs[i].key, results[i])) {
      if (cached != nullptr) (*cached)[i] = 1;
    } else {
      results[i] = results[rep];
    }
  }
  return results;
}

}  // namespace t1map::t1
