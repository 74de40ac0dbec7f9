/// \file flow_engine.hpp
/// \brief The Table-I flow, run by one engine.
///
/// A `FlowEngine` is the one way to run the flow, once or many times.  It
/// owns the reusable state: a persistent pool of worker threads, one
/// `FlowScratch` per worker (cut-enumeration arenas, the SAT solver,
/// simulation buffers) and the pass memo (pass_memo.hpp).  Every run makes
/// the same steps in the same order: the four mapping passes (map, t1,
/// stage, dff), then the checks its `Pipeline` selects.
///
/// Design points:
///   * A run keeps its evolving data in its own result and its reusable
///     allocations in the worker's `FlowScratch`, so one engine drives many
///     worker threads concurrently.
///   * The checks (timing validation, random-simulation equivalence, SAT
///     CEC) report failures as structured `Diagnostic` records plus a
///     `FlowStatus` the caller inspects — not bare throws.  Invalid
///     parameters (e.g. T1 cells with fewer than 3 phases) still throw
///     `ContractError`.
///   * `FlowEngine::run_many` deals a batch of `FlowJob`s over the engine's
///     workers; results are index-aligned and bit-for-bit independent of
///     the thread count.  Caching results is the serving layer's business
///     (serve/tiered_cache.hpp).
///
/// Minimal embedding:
/// \code
///   t1map::t1::FlowEngine engine;                 // default Table-I flow
///   t1map::t1::FlowParams params;                 // 4 phases, T1 on
///   const auto result = engine.run(aig, params);
///   if (!result.ok()) { /* inspect result.diagnostics */ }
///   use(result.materialized.netlist, result.stats);
/// \endcode

#pragma once

#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cut/cut_enum.hpp"
#include "sat/cec.hpp"
#include "sfq/netlist_sim.hpp"
#include "t1/flow.hpp"

namespace t1map {
class WorkerPool;  // common/worker_pool.hpp
}  // namespace t1map

namespace t1map::t1 {

// --- Structured diagnostics --------------------------------------------------

enum class Severity { kInfo, kWarning, kError };

const char* severity_name(Severity severity);

/// One structured record emitted by a pass.
struct Diagnostic {
  Severity severity = Severity::kInfo;
  std::string pass;     // the emitting step, e.g. "timing" or "cec"
  std::string message;  // human-readable detail
};

/// Ordered sink of per-pass records; filled by a run and returned in its
/// `EngineResult`.
class Diagnostics {
 public:
  void add(Severity severity, std::string pass, std::string message);
  void info(std::string pass, std::string message);
  void warning(std::string pass, std::string message);
  void error(std::string pass, std::string message);

  const std::vector<Diagnostic>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }
  bool has_errors() const;
  /// Message of the first error record ("" when none): the one-line reason
  /// a failed run reports.
  std::string first_error() const;
  /// Multi-line `severity [pass] message` rendering.
  std::string to_string() const;

 private:
  std::vector<Diagnostic> entries_;
};

/// How a run ended.  Anything but kOk has at least one error diagnostic
/// explaining it.
enum class FlowStatus {
  kOk = 0,
  kTimingViolation,  // timing check: materialized netlist is illegal
  kNotEquivalent,    // sim or cec check: result differs from the source
};

const char* flow_status_name(FlowStatus status);

/// Canonical CLI/JSON name of a CEC verdict.
const char* cec_verdict_name(sat::CecResult::Verdict verdict);

// --- Engine state ------------------------------------------------------------

struct PassMemo;  // pass_memo.hpp — the previous result of each pass

/// What one run reused from the pass memo.  Each pass either reuses its
/// whole previous result or recomputes: on a hit its `reused` count equals
/// its total and its flag is set, on a miss it reuses nothing, and a run
/// without a memo reuses nothing.  The totals are filled on every run of
/// the pass.  Reuse never changes a result.
struct ReuseCounters {
  std::uint32_t map_cones_total = 0;   // AND nodes of the mapped AIG
  std::uint32_t map_cones_reused = 0;  // … all of them on a map hit
  std::uint32_t t1_cones_total = 0;    // logic cells T1 detection saw
  std::uint32_t t1_cones_reused = 0;   // … all of them on a t1 hit
  bool t1_exact = false;       // DetectResult reused (t1 hit)
  bool stage_spliced = false;  // StageAssignment reused (stage hit)
};

/// Reusable per-thread scratch: every allocation-heavy substrate the passes
/// touch.  Reset-and-reuse semantics — holding one `FlowScratch` across
/// thousands of runs stops paying arena growth after the first.
struct FlowScratch {
  CutWorkspace cuts;        // map + t1 enumeration arenas
  DetectScratch t1_detect;  // t1 grouping/MFFC flat storage
  sat::Solver solver;       // cec clause arena
  sfq::SimScratch sim;      // sim stimulus buffer
};

// --- Pipeline ----------------------------------------------------------------

/// Which checks follow the four mapping passes.  Every run maps the AIG
/// to SFQ cells (map), substitutes T1 cells (t1), assigns stages (stage)
/// and inserts DFFs (dff).  Then it runs the timing check, random
/// simulation when `FlowParams::verify_rounds > 0`, and SAT CEC when
/// `with_cec` is set, in that order.  A failed check stops the run.
struct Pipeline {
  bool with_cec = false;

  /// The Table-I flow; `with_cec` adds SAT CEC.
  static Pipeline default_flow(bool with_cec = false) {
    return Pipeline{with_cec};
  }
};

// --- Engine ------------------------------------------------------------------

/// What one run of the flow returns: the netlists, the Table-I statistics
/// and the structured outcome.  On failure (`!ok()`) a check rejected the
/// result; its netlists are still filled, so callers can post-mortem it.
struct EngineResult {
  FlowStatus status = FlowStatus::kOk;
  bool ok() const { return status == FlowStatus::kOk; }

  sfq::Netlist mapped;                    // pre-retiming network
  /// Set on every result a `FlowEngine` returns.  False only on a result
  /// built elsewhere whose `materialized` is not a mapped design.
  bool has_materialized = false;
  retime::MaterializeResult materialized;
  FlowStats stats;
  StageTimes times;
  Diagnostics diagnostics;
  /// What this run reused from the pass memo (see `ReuseCounters`).  A
  /// result served from the serve cache carries all zeros: it ran no pass.
  ReuseCounters reuse;
  std::string cec = "skipped";
};

/// One mapping problem of a `run_many` batch.
struct FlowJob {
  const Aig* aig = nullptr;
  FlowParams params;
};

/// Runs the flow over AIGs on a persistent pool of workers, each with its
/// own `FlowScratch`.  Not itself thread-safe: use one engine per calling
/// thread.
class FlowEngine {
 public:
  /// Engine over the default Table-I flow (no CEC).
  FlowEngine();
  explicit FlowEngine(Pipeline pipeline);
  ~FlowEngine();  // out of line: PassMemo and WorkerPool are incomplete here

  void set_pipeline(Pipeline pipeline) { pipeline_ = pipeline; }

  /// The pass memo across this engine's runs (default on): on worker 0,
  /// the map, t1 and stage passes each reuse their whole previous result
  /// when their input and parameters are the ones it was computed from,
  /// and otherwise recompute (pass_memo.hpp).  An exact re-run is cheap; an
  /// edited design recomputes from the first pass whose input changed.
  /// Results are always identical to cold runs; `EngineResult::reuse`
  /// reports what was reused.  Turning it off drops the memo.
  void set_incremental(bool enabled);
  bool incremental() const { return memo_ != nullptr; }

  /// Batch workers for this engine's runs (default 1).  `run_many` deals
  /// whole jobs to the workers, one netlist per worker at a time; every
  /// pass runs serially inside its job, and `run` always runs on worker 0.
  /// The workers and their scratch persist across calls.  Results never
  /// depend on the setting.
  void set_threads(int threads);
  int threads() const { return static_cast<int>(workers_.size()); }

  /// Runs the flow on one AIG on worker 0.
  EngineResult run(const Aig& aig, const FlowParams& params = {});

  /// Deterministic batched execution: runs every job, and results are
  /// index-aligned with `jobs` and identical to running each job alone, at
  /// any thread count.  A batch that runs on worker 0 alone (one job, or
  /// one thread) reuses from the pass memo; a batch spread over several
  /// workers runs cold.  The first exception a job throws (a contract
  /// violation) is rethrown on the calling thread, and the engine stays
  /// usable.
  std::vector<EngineResult> run_many(std::span<const FlowJob> jobs);

 private:
  /// Runs the flow on `aig` with `scratch`, reusing from `memo` when it is
  /// not null.
  EngineResult run_with(const Aig& aig, const FlowParams& params,
                        FlowScratch& scratch, PassMemo* memo) const;

  Pipeline pipeline_;
  std::unique_ptr<PassMemo> memo_;  // null when the memo is off
  std::deque<FlowScratch> workers_;   // one per thread; worker 0 runs `run`
  std::unique_ptr<WorkerPool> pool_;  // the batch workers; null at 1 thread
};

}  // namespace t1map::t1
