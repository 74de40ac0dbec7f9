// The two flow workloads: `table1-map` (the paper's experiment, no CEC) and
// `verify` (the T1 configuration with budgeted SAT CEC).  Both drive one
// non-incremental `FlowEngine` serially in a closed loop; their traced runs
// re-enact the same flows through the layer calls of layers.hpp.

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>

#include "gen/registry.hpp"
#include "t1/flow_engine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace t1 = t1map::t1;

namespace {

/// `verify` conflict budgets: ample for the circuits that prove (mul8, the
/// hardest, needs about 46k), small for those that exhaust any budget
/// tried so far, so that giving up stays cheap.
constexpr std::int64_t kProveConflictLimit = 50000;
constexpr std::int64_t kExhaustConflictLimit = 2000;

/// How far from 1 the share of the untraced `table1-map` flow time that the
/// layer self times account for may be before the run fails.
constexpr double kAccountedTolerance = 0.2;

struct FlowJob {
  std::string label;
  t1map::Aig aig;
  t1::FlowParams params;
  bool t1_config = false;
};

struct Setup {
  std::vector<FlowJob> jobs;
  std::unique_ptr<t1::FlowEngine> engine;
  bool with_cec = false;
};

/// What the first execution of a job produced; every later execution of
/// the job must reproduce it.
struct Reference {
  bool set = false;
  std::string stats;
  std::string cec;
  t1::FlowStats numbers;
  double first_ms = 0.0;  // wall time of the first execution
};

/// One pass over every job.
struct Pass {
  PassTimes times;
  LayerCounters counters;  // traced passes
  std::int64_t map_cones_total = 0;
  std::int64_t map_cones_reused = 0;
};

t1::FlowParams config_params(int phases, bool use_t1) {
  t1::FlowParams params;
  params.num_phases = phases;
  params.use_t1 = use_t1;
  return params;
}

std::vector<FlowJob> table1_jobs() {
  std::vector<FlowJob> jobs;
  for (const std::string& name : t1map::gen::table1_names()) {
    const t1map::Aig aig = t1map::gen::make_benchmark(name);
    jobs.push_back({name + "/1phi", aig, config_params(1, false), false});
    jobs.push_back({name + "/4phi", aig, config_params(4, false), false});
    jobs.push_back({name + "/t1", aig, config_params(4, true), true});
  }
  return jobs;
}

std::vector<FlowJob> verify_jobs() {
  struct Circuit {
    const char* name;
    std::int64_t conflict_limit;
  };
  static constexpr Circuit kCircuits[] = {
      {"adder", kProveConflictLimit},       {"c7552", kProveConflictLimit},
      {"voter25", kProveConflictLimit},     {"square12", kProveConflictLimit},
      {"mul8", kProveConflictLimit},        {"sin10", kProveConflictLimit},
      {"voter", kExhaustConflictLimit},     {"c6288", kExhaustConflictLimit},
      {"square", kExhaustConflictLimit},    {"multiplier", kExhaustConflictLimit},
      {"sin", kExhaustConflictLimit},       {"log2", kExhaustConflictLimit}};
  std::vector<FlowJob> jobs;
  for (const Circuit& c : kCircuits) {
    t1::FlowParams params = config_params(4, true);
    params.cec_conflict_limit = c.conflict_limit;
    jobs.push_back({c.name, t1map::gen::make_named(c.name), params, true});
  }
  return jobs;
}

Setup build(const std::function<std::vector<FlowJob>()>& make_jobs,
            bool with_cec, HostSpeed& speed, SetupTime& setup_time) {
  Setup setup;
  setup_time = timed_setup(speed, [&] {
    setup.jobs = make_jobs();
    setup.engine = std::make_unique<t1::FlowEngine>(
        t1::Pipeline::default_flow(with_cec));
    setup.engine->set_incremental(false);
    setup.with_cec = with_cec;
  });
  return setup;
}

/// Checks one execution of a job against its reference (recording the
/// reference on first use); returns "" or the reason it failed.
std::string check_against(Reference& ref, const t1::EngineResult& r,
                          bool with_cec) {
  if (!r.ok()) {
    return std::string("status ") + t1::flow_status_name(r.status) + ": " +
           r.diagnostics.first_error();
  }
  if (with_cec && r.cec == "not_equivalent") return "CEC not_equivalent";
  const std::string text = stats_text(r.stats);
  if (!ref.set) {
    ref = Reference{true, text, r.cec, r.stats, 1e3 * r.times.total_wall};
    return {};
  }
  if (text != ref.stats) return "stats differ: " + text + " vs " + ref.stats;
  if (r.cec != ref.cec) return "CEC verdict " + r.cec + " vs " + ref.cec;
  return {};
}

/// One pass over the jobs in a seed-shuffled order.  `one_flow(j, pass)`
/// executes job `j` and returns its failure reason or "".  With `speed`,
/// the host's speed is sampled around and between flows and gives the
/// pass's scale.  The pass's time is the sum of its flows' times.
Pass run_pass(const std::vector<FlowJob>& jobs, std::mt19937_64& rng,
              Report& report, HostSpeed* speed,
              const std::function<std::string(std::size_t, Pass&)>& one_flow) {
  Pass pass;
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), rng);
  if (speed != nullptr) speed->begin();
  for (const std::size_t j : order) {
    if (speed != nullptr) speed->tick();
    const std::int64_t t0 = now_ns();
    const std::string error = one_flow(j, pass);
    const double s = seconds_since(t0);
    pass.times.latency_ms.push_back(1e3 * s);
    pass.times.seconds += s;
    report.op(error.empty(), jobs[j].label + ": " + error);
  }
  if (speed != nullptr) pass.times.scale = speed->end();
  return pass;
}

Pass engine_pass(Setup& setup, std::vector<Reference>& refs,
                 std::mt19937_64& rng, Report& report,
                 HostSpeed* speed = nullptr) {
  return run_pass(setup.jobs, rng, report, speed,
                  [&](std::size_t j, Pass& pass) -> std::string {
    const FlowJob& job = setup.jobs[j];
    const t1::EngineResult r = setup.engine->run(job.aig, job.params);
    pass.map_cones_total += r.reuse.map_cones_total;
    pass.map_cones_reused += r.reuse.map_cones_reused;
    // A memo splice must never be timed as a cold flow.
    if (r.reuse.map_cones_reused != 0 || r.reuse.t1_cones_reused != 0 ||
        r.reuse.t1_exact || r.reuse.stage_spliced) {
      return "memo reuse on a cold flow";
    }
    return check_against(refs[j], r, setup.with_cec);
  });
}

Pass traced_pass(Setup& setup, std::vector<Reference>& refs,
                 std::mt19937_64& rng, Tracer& tracer, LayerScratch& scratch,
                 std::uint64_t& op_id, Report& report) {
  return run_pass(setup.jobs, rng, report, nullptr,
                  [&](std::size_t j, Pass& pass) -> std::string {
    const FlowJob& job = setup.jobs[j];
    tracer.set_op(op_id++);
    const LayerRun run = run_layers(job.aig, job.params, setup.with_cec,
                                    scratch, tracer, pass.counters);
    run_probes(job.aig, job.params, run, scratch, tracer, pass.counters);
    // An engine pass ran first, so the reference is the FlowEngine's.
    const std::string error =
        check_against(refs[j], run.result, setup.with_cec);
    return error.empty() ? error : "layer calls vs FlowEngine: " + error;
  });
}

Report run_flow_workload(const Options& opt,
                         const std::function<std::vector<FlowJob>()>& jobs,
                         bool with_cec) {
  Report report;
  add_host_facts(opt, report);
  HostSpeed speed;
  SetupTime setup_time;
  Setup setup = build(jobs, with_cec, speed, setup_time);
  for (const FlowJob& job : setup.jobs) {
    if (job.t1_config) add_input_digest(report, job.label, job.aig);
  }
  std::vector<Reference> refs(setup.jobs.size());
  std::mt19937_64 rng(opt.seed);

  if (!opt.trace) {
    // Whole passes, at least one, and none that would end after --seconds.
    std::vector<PassTimes> passes;
    const std::int64_t start = now_ns();
    double last_s = 0.0;
    while (passes.empty() || seconds_since(start) + last_s <= opt.seconds) {
      const std::int64_t t0 = now_ns();
      Pass pass = engine_pass(setup, refs, rng, report, &speed);
      last_s = seconds_since(t0);
      passes.push_back(std::move(pass.times));
    }
    const double elapsed_s = seconds_since(start);
    report_setup(report, setup_time, speed);
    report.pass_metrics(passes);
    long area = 0;
    long dffs = 0;
    long proved = 0;
    for (std::size_t j = 0; j < setup.jobs.size(); ++j) {
      if (!setup.jobs[j].t1_config) continue;
      area += refs[j].numbers.area_jj;
      dffs += refs[j].numbers.dffs;
      proved += refs[j].cec == "equivalent";
    }
    report.metric("area_jj_t1", static_cast<double>(area), "JJ");
    report.metric("dffs_t1", static_cast<double>(dffs), "count");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    std::vector<double> pass_s;
    std::vector<double> raw_pass_s;
    for (const PassTimes& p : passes) {
      raw_pass_s.push_back(p.seconds);
      pass_s.push_back(p.seconds * p.scale);
    }
    std::ostringstream os;
    os << passes.size() << " passes of " << setup.jobs.size() << " flows in "
       << elapsed_s << " s; pass_s " << median_of(pass_s) << " (unscaled "
       << median_of(raw_pass_s) << ")";
    if (with_cec) {
      os << "; verified_share "
         << static_cast<double>(proved) / static_cast<double>(setup.jobs.size())
         << " (" << proved << " of " << setup.jobs.size() << " equivalent)";
    }
    report.notes.push_back(os.str());
    for (std::size_t j = 0; j < setup.jobs.size() && with_cec; ++j) {
      std::ostringstream v;
      v << "verdict " << setup.jobs[j].label << ' ' << refs[j].cec
        << " (limit " << setup.jobs[j].params.cec_conflict_limit
        << " conflicts, first run " << refs[j].first_ms << " ms)";
      report.notes.push_back(v.str());
    }
    return report;
  }

  // Traced run.  A warm-up engine pass records the references; then engine
  // passes (untraced time) alternate with traced passes, so both see the
  // same machine state.  At least two of each, for the determinism check.
  engine_pass(setup, refs, rng, report);
  Tracer tracer;
  LayerScratch scratch;
  std::uint64_t op_id = 0;
  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  double elapsed_s = 0.0;
  double last_s = 0.0;
  while (traced.size() < 2 || elapsed_s + last_s <= opt.seconds) {
    untraced.push_back(engine_pass(setup, refs, rng, report));
    traced.push_back(
        traced_pass(setup, refs, rng, tracer, scratch, op_id, report));
    last_s = untraced.back().times.seconds + traced.back().times.seconds;
    elapsed_s += last_s;
  }
  for (std::size_t p = 1; p < traced.size(); ++p) {
    if (!(traced[p].counters == traced[0].counters)) {
      report.fail("determinism: layer counters of pass " + std::to_string(p) +
                  " differ from pass 0");
    }
  }
  double untraced_ms = 0.0;
  std::int64_t untraced_flows = 0;
  for (const Pass& p : untraced) {
    const std::vector<double>& ms = p.times.latency_ms;
    untraced_ms += std::accumulate(ms.begin(), ms.end(), 0.0);
    untraced_flows += static_cast<std::int64_t>(ms.size());
  }
  const Pass& first = untraced.front();
  LayerValues values;
  add_layer_values(values, report, tracer, "flow",
                   static_cast<std::int64_t>(traced.size() * setup.jobs.size()),
                   untraced_ms / static_cast<double>(untraced_flows),
                   traced.front().counters);
  values["t1.memo.map_reuse_ratio"] =
      first.map_cones_total > 0
          ? static_cast<double>(first.map_cones_reused) /
                static_cast<double>(first.map_cones_total)
          : 0.0;
  values["t1.memo.map_cones_total"] =
      static_cast<double>(first.map_cones_total);
  report.counters.emplace_back("t1.memo.map_cones_total",
                               first.map_cones_total);
  report.counters.emplace_back("t1.memo.map_cones_reused",
                               first.map_cones_reused);
  // On table1-map the layer calls are all the engine does, so their self
  // times must account for the untraced flow time.
  const double share = values["trace.accounted_share"];
  if (!with_cec && std::abs(share - 1.0) > kAccountedTolerance) {
    report.fail("layer self times account for " + std::to_string(share) +
                " of the untraced flow time, outside 1 +- " +
                std::to_string(kAccountedTolerance));
  }
  emit_layer_metrics(report, values);
  write_trace(opt, tracer, report);
  report.notes.push_back(std::to_string(traced.size()) +
                         " untraced and traced passes, alternating, after "
                         "one warm-up pass");
  return report;
}

}  // namespace

Report run_table1_map(const Options& opt) {
  return run_flow_workload(opt, table1_jobs, /*with_cec=*/false);
}

Report run_verify(const Options& opt) {
  return run_flow_workload(opt, verify_jobs, /*with_cec=*/true);
}

}  // namespace perfbench
