#include "t1/flow_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "common/hash_mix.hpp"
#include "retime/timing_check.hpp"
#include "sfq/netlist_digest.hpp"
#include "t1/cone_memo.hpp"
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

/// Restores a scratch's `intra_threads` on scope exit (the sequential
/// `run_many` paths borrow the engine scratch with a different setting).
struct IntraThreadsGuard {
  FlowScratch& scratch;
  int saved;
  IntraThreadsGuard(FlowScratch& s, int intra) : scratch(s), saved(s.intra_threads) {
    scratch.intra_threads = std::max(1, intra);
  }
  ~IntraThreadsGuard() { scratch.intra_threads = saved; }
};

}  // namespace

// --- FlowScratch -------------------------------------------------------------

WorkerPool* FlowScratch::pool() {
  if (intra_threads <= 1) return nullptr;
  if (pool_ == nullptr || pool_->num_workers() != intra_threads) {
    pool_ = std::make_unique<WorkerPool>(intra_threads);
  }
  return pool_.get();
}

std::uint64_t FlowScratch::pool_busy_ns() const {
  return pool_ != nullptr ? pool_->busy_ns() : 0;
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

void FlowContext::fail(FlowStatus failure, std::string pass,
                       std::string message) {
  T1MAP_ASSERT(failure != FlowStatus::kOk);
  status = failure;
  diagnostics.error(std::move(pass), std::move(message));
}

// --- Passes ------------------------------------------------------------------

bool MapPass::run(FlowContext& ctx) const {
  T1MAP_REQUIRE(ctx.aig != nullptr, "MapPass: context carries no source AIG");
  sfq::MapStats map_stats;
  sfq::MapParallel parallel;
  if (ctx.scratch != nullptr) {
    parallel.pool = ctx.scratch->pool();
    parallel.cuts = &ctx.scratch->par_cuts;
  }
  ConeMemo* memo = ctx.scratch != nullptr ? ctx.scratch->memo : nullptr;
  sfq::MapReuse map_reuse;
  ctx.mapped = sfq::map_to_sfq(
      *ctx.aig, ctx.params.mapper, &map_stats,
      ctx.scratch != nullptr ? &ctx.scratch->cuts : nullptr, parallel,
      memo != nullptr ? &memo->map : nullptr, &map_reuse);
  ctx.reuse.map_cones_total = map_reuse.cones_total;
  ctx.reuse.map_cones_reused = map_reuse.cones_reused;
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
  ConeMemo* memo = ctx.scratch != nullptr ? ctx.scratch->memo : nullptr;
  DetectReuse det_reuse;
  const DetectResult det = detect_t1(
      ctx.mapped, ctx.params.detect,
      ctx.scratch != nullptr ? &ctx.scratch->cuts : nullptr,
      ctx.scratch != nullptr ? &ctx.scratch->t1_detect : nullptr,
      memo != nullptr ? &memo->detect : nullptr, &det_reuse);
  ctx.reuse.t1_cones_total = det_reuse.cones_total;
  ctx.reuse.t1_cones_reused = det_reuse.cones_reused;
  ctx.reuse.t1_exact = det_reuse.exact;
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
  // The coordinate-descent optimizer is move-sequence dependent, so there
  // is no sound cone-level splice here; instead an identity-digest match of
  // the (post-T1) netlist reuses the whole memoized assignment — the common
  // case when the upstream passes absorbed an edit or on exact re-runs.
  ConeMemo* memo = ctx.scratch != nullptr ? ctx.scratch->memo : nullptr;
  if (memo != nullptr) {
    const std::uint64_t key = stage_params_key(stage_params);
    const std::uint64_t identity = sfq::netlist_identity_digest(ctx.mapped);
    StageMemo& sm = memo->stage;
    if (sm.valid && sm.params_key == key && sm.identity == identity) {
      ctx.assignment = sm.assignment;
      ctx.reuse.stage_spliced = true;
    } else {
      ctx.assignment = retime::assign_stages(ctx.mapped, stage_params);
      sm.assignment = ctx.assignment;
      sm.identity = identity;
      sm.params_key = key;
      sm.valid = true;
    }
  } else {
    ctx.assignment = retime::assign_stages(ctx.mapped, stage_params);
  }
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
  s.logic_cells = 0;
  for (std::uint32_t v = 0; v < mat.num_nodes(); ++v) {
    if (sfq::cell_is_logic(mat.kind(v))) ++s.logic_cells;
  }
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
  T1MAP_REQUIRE(ctx.aig != nullptr, "SimEquivPass: context carries no source "
                                    "AIG");
  if (ctx.params.verify_rounds <= 0) return true;
  const std::optional<sfq::Mismatch> mismatch = sfq::find_sim_mismatch(
      *ctx.aig, ctx.materialized.netlist, ctx.params.verify_rounds,
      /*seed=*/1, ctx.scratch != nullptr ? &ctx.scratch->sim : nullptr);
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
  T1MAP_REQUIRE(ctx.aig != nullptr, "SatCecPass: context carries no source "
                                    "AIG");
  const sat::CecResult result =
      ctx.scratch != nullptr
          ? sat::check_equivalence(*ctx.aig, ctx.materialized.netlist,
                                   ctx.params.cec_conflict_limit,
                                   ctx.scratch->solver)
          : sat::check_equivalence(*ctx.aig, ctx.materialized.netlist,
                                   ctx.params.cec_conflict_limit);
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

FlowEngine::FlowEngine(Pipeline pipeline) : pipeline_(std::move(pipeline)) {
  set_incremental(true);
}

FlowEngine::~FlowEngine() = default;

void FlowEngine::set_incremental(bool enabled) {
  if (enabled) {
    if (memo_ == nullptr) memo_ = std::make_unique<ConeMemo>();
    scratch_.memo = memo_.get();
  } else {
    scratch_.memo = nullptr;
    memo_.reset();
  }
}

void FlowEngine::set_pipeline(Pipeline pipeline) {
  pipeline_ = std::move(pipeline);
}

EngineResult FlowEngine::run_with(const Pipeline& pipeline, const Aig& aig,
                                  const FlowParams& params,
                                  FlowScratch& scratch) {
  T1MAP_REQUIRE(params.num_phases >= 1, "need at least one phase");
  T1MAP_REQUIRE(!params.use_t1 || params.num_phases >= 3,
                "the T1 flow needs at least 3 phases (input separation)");
  T1MAP_REQUIRE(!pipeline.empty(), "FlowEngine: empty pipeline");

  FlowContext ctx;
  ctx.aig = &aig;
  ctx.params = params;
  ctx.scratch = &scratch;

  const Clock::time_point flow_start = Clock::now();
  // Resolve the pool for the current `intra_threads` *before* sampling its
  // busy counter: a pass-triggered rebuild (thread count changed since the
  // last run on this scratch) would reset busy_ns to 0 and make the delta
  // below underflow.
  scratch.pool();
  const std::uint64_t busy_before = scratch.pool_busy_ns();
  for (std::size_t i = 0; i < pipeline.size(); ++i) {
    const Pass& pass = pipeline[i];
    const Clock::time_point t0 = Clock::now();
    const bool keep_going = pass.run(ctx);
    ctx.times.*pass.time_slot() += seconds_between(t0, Clock::now());
    if (!keep_going) {
      T1MAP_ASSERT(ctx.status != FlowStatus::kOk);
      break;
    }
  }
  // Wall vs. CPU: the helpers' busy time on top of the caller's wall time.
  // Serial runs report them equal; the `--bench-threads` harness derives
  // parallel efficiency from the gap.
  ctx.times.total_wall = seconds_between(flow_start, Clock::now());
  const std::uint64_t busy_after = scratch.pool_busy_ns();
  const std::uint64_t busy_delta =
      busy_after >= busy_before ? busy_after - busy_before : busy_after;
  ctx.times.total_cpu =
      ctx.times.total_wall + static_cast<double>(busy_delta) * 1e-9;

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
  return run_with(pipeline_, aig, params, scratch_);
}

void FlowEngine::set_threads(int threads) {
  threads_ = std::max(1, threads);
  scratch_.intra_threads = threads_;
}

void for_each_with_scratch(
    std::size_t count, int workers,
    const std::function<void(std::size_t, FlowScratch&)>& fn,
    int intra_threads) {
  if (count == 0) return;
  workers = std::clamp(workers, 1, static_cast<int>(count));
  intra_threads = std::max(1, intra_threads);
  if (workers == 1) {
    FlowScratch scratch;
    scratch.intra_threads = intra_threads;
    for (std::size_t i = 0; i < count; ++i) fn(i, scratch);
    return;
  }

  // Work-stealing over a shared index; each worker owns its scratch, so a
  // callback writing only index-distinct state is race-free and its output
  // independent of the interleaving.
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto worker = [&]() {
    FlowScratch scratch;
    scratch.intra_threads = intra_threads;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i, scratch);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int t = 0; t < workers; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::vector<EngineResult> FlowEngine::run_many(
    std::span<const Aig* const> aigs, const FlowParams& params,
    int num_threads) {
  for (const Aig* aig : aigs) {
    T1MAP_REQUIRE(aig != nullptr, "run_many: null AIG in batch");
  }
  std::vector<EngineResult> results(aigs.size());
  if (aigs.empty()) return results;

  // One thread budget, netlists first: the batch takes up to `num_threads`
  // workers, and whatever the batch cannot absorb spills into the parallel
  // sections inside each run.
  const int outer =
      std::clamp(num_threads, 1, static_cast<int>(aigs.size()));
  const int intra = std::max(1, num_threads / outer);
  if (outer == 1) {
    // Sequential runs stay on the engine's own scratch so capacity keeps
    // accumulating across run()/run_many() calls.
    const IntraThreadsGuard guard(scratch_, intra);
    for (std::size_t i = 0; i < aigs.size(); ++i) {
      results[i] = run_with(pipeline_, *aigs[i], params, scratch_);
    }
    return results;
  }
  for_each_with_scratch(
      aigs.size(), num_threads,
      [&](std::size_t i, FlowScratch& scratch) {
        results[i] = run_with(pipeline_, *aigs[i], params, scratch);
      },
      intra);
  return results;
}

std::vector<EngineResult> FlowEngine::run_many(
    std::span<const Aig* const> aigs, const FlowParams& params,
    int num_threads, RunCache* cache, std::span<const RunKey> keys,
    std::vector<std::uint8_t>* cached) {
  if (cache == nullptr) {
    if (cached != nullptr) cached->assign(aigs.size(), 0);
    return run_many(aigs, params, num_threads);
  }
  T1MAP_REQUIRE(keys.size() == aigs.size(),
                "run_many: cache keys must be index-aligned with the batch");
  for (const Aig* aig : aigs) {
    T1MAP_REQUIRE(aig != nullptr, "run_many: null AIG in batch");
  }

  std::vector<EngineResult> results(aigs.size());
  if (cached != nullptr) cached->assign(aigs.size(), 0);

  // Partition the batch: cache hits are filled immediately, the first
  // occurrence of each unseen key is scheduled, and later duplicates of a
  // scheduled key become aliases served after the representative computes.
  std::vector<std::size_t> miss;               // representative indices
  std::vector<std::pair<std::size_t, std::size_t>> alias;  // (index, rep)
  for (std::size_t i = 0; i < aigs.size(); ++i) {
    if (cache->lookup(keys[i], results[i])) {
      if (cached != nullptr) (*cached)[i] = 1;
      continue;
    }
    bool duplicate = false;
    for (const std::size_t m : miss) {
      if (keys[m] == keys[i]) {
        alias.emplace_back(i, m);
        duplicate = true;
        break;
      }
    }
    if (!duplicate) miss.push_back(i);
  }

  if (!miss.empty()) {
    const int outer =
        std::clamp(num_threads, 1, static_cast<int>(miss.size()));
    const int intra = std::max(1, num_threads / outer);
    if (outer == 1) {
      const IntraThreadsGuard guard(scratch_, intra);
      for (const std::size_t i : miss) {
        results[i] = run_with(pipeline_, *aigs[i], params, scratch_);
      }
    } else {
      for_each_with_scratch(
          miss.size(), num_threads,
          [&](std::size_t m, FlowScratch& scratch) {
            const std::size_t i = miss[m];
            results[i] = run_with(pipeline_, *aigs[i], params, scratch);
          },
          intra);
    }
    // Only ok-results are offered: a failed run carries partial state that
    // must not masquerade as a mapped design on a later hit, and an
    // inconclusive CEC must not come back as a hit that looks verified.
    for (const std::size_t i : miss) {
      if (results[i].ok() && results[i].cec != "unknown") {
        cache->store(keys[i], results[i]);
      }
    }
  }

  // Aliases re-read through the cache so hit counters stay truthful; a
  // representative that was never stored is copied directly instead.
  for (const auto& [i, rep] : alias) {
    if (cache->lookup(keys[i], results[i])) {
      if (cached != nullptr) (*cached)[i] = 1;
    } else {
      results[i] = results[rep];
    }
  }
  return results;
}

}  // namespace t1map::t1
