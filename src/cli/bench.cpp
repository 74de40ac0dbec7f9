#include "cli/bench.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cli/report.hpp"
#include "common/require.hpp"
#include "cut/cut_enum.hpp"
#include "fuzz/mutate.hpp"
#include "gen/registry.hpp"
#include "io/json.hpp"
#include "serve/json_out.hpp"
#include "t1/flow_engine.hpp"

namespace t1map::cli {

namespace {

using Clock = std::chrono::steady_clock;

/// Small circuit subset: quick enough for CI, large enough that every stage
/// (including SAT CEC) shows measurable time.
const std::vector<std::string>& small_set() {
  static const std::vector<std::string> names = {
      "adder16", "adder64",      "mul8",  "square12",
      "voter25", "comparator16", "sin12",
  };
  return names;
}

/// Deep-netlist subset: hundreds-to-thousands of stages, exercising the
/// `t1_detect` grouping and `stage_assign` frontier sweeps on long
/// ripple/CORDIC chains rather than wide shallow logic.
const std::vector<std::string>& deep_set() {
  static const std::vector<std::string> names = {
      "adder256", "cordic32", "log2_16",
  };
  return names;
}

/// min / mean / max over `runs` samples of one stage, in milliseconds.
struct StageSamples {
  double min = std::numeric_limits<double>::max();
  double max = 0.0;
  double sum = 0.0;
  long count = 0;

  void add(double seconds) {
    const double ms = seconds * 1e3;
    min = std::min(min, ms);
    max = std::max(max, ms);
    sum += ms;
    ++count;
  }
  io::Json json() const {
    io::Json j = io::Json::object();
    j.set("min_ms", count > 0 ? min : 0.0);
    // A single run has no spread: mean == min == max, and downstream
    // tooling would read the duplicated numbers as a (degenerate) jitter
    // measurement.  Only emit the jitter fields when they carry one.
    if (count > 1) {
      j.set("mean_ms", sum / static_cast<double>(count));
      j.set("max_ms", max);
    }
    return j;
  }
};

struct CircuitBench {
  StageSamples cut_enum;  // standalone enumeration on the source AIG
  StageSamples map;       // technology mapping (includes its own cut enum)
  StageSamples t1_detect;
  StageSamples stage_assign;
  StageSamples dff_insert;
  StageSamples self_check;
  StageSamples cec;
  StageSamples total;
};

io::Json bench_json(const CircuitBench& b, bool with_cec) {
  io::Json stages = io::Json::object();
  stages.set("cut_enum", b.cut_enum.json());
  stages.set("map", b.map.json());
  stages.set("t1_detect", b.t1_detect.json());
  stages.set("stage_assign", b.stage_assign.json());
  stages.set("dff_insert", b.dff_insert.json());
  stages.set("self_check", b.self_check.json());
  if (with_cec) stages.set("cec", b.cec.json());
  stages.set("total", b.total.json());
  return stages;
}

std::string render_json(const io::Json& j) {
  std::ostringstream os;
  j.write(os, 0);
  return os.str();
}

void write_bench_out(const Options& opts, const io::Json& root) {
  if (opts.bench_out == "-") {
    root.write(std::cout, 2);
    std::cout << '\n';
  } else {
    std::ofstream ofs(opts.bench_out);
    T1MAP_REQUIRE(ofs.good(), "cannot open for writing: " + opts.bench_out);
    root.write(ofs, 2);
    ofs << '\n';
    std::cerr << "t1map: bench trajectory written to " << opts.bench_out
              << std::endl;
  }
}

io::Json reuse_json(const t1::ReuseCounters& r) {
  io::Json j = io::Json::object();
  j.set("map_cones_total", r.map_cones_total);
  j.set("map_cones_reused", r.map_cones_reused);
  j.set("t1_cones_total", r.t1_cones_total);
  j.set("t1_cones_reused", r.t1_cones_reused);
  j.set("t1_exact", r.t1_exact);
  j.set("stage_spliced", r.stage_spliced);
  return j;
}

/// Near-duplicate incremental measurement (--bench-set nearduplicate): each
/// base circuit is mapped cold as the reference, then one-gate mutants are
/// mapped on an engine whose cone memo was just re-warmed with the base
/// (untimed), so the NAME~mJ timings are the dirty-region remap cost.  Every
/// warm mutant run is checked bit-identical to a cold run of the same
/// mutant — the incremental soundness contract, enforced per rep.
///
/// SAT CEC is always off here: bit-identity against the cold run is the
/// correctness oracle, and miters on mutated arithmetic can take seconds —
/// they would time the SAT solver, not the splice.  The random-sim
/// self-check stays in unless --skip-checks.
int run_bench_nearduplicate(const Options& opts) {
  static const std::vector<std::string> bases = {"adder64", "mul8",
                                                 "cordic28"};
  constexpr int kMutants = 3;

  t1::FlowParams params;
  params.num_phases = opts.phases;
  params.use_t1 = true;
  params.verify_rounds = opts.verify_rounds;
  const bool with_cec = false;
  const auto make_pipeline = [&opts] {  // Pipeline is move-only
    return opts.skip_checks ? t1::Pipeline::parse("map,t1,stage,dff")
                            : t1::Pipeline::default_flow(/*with_cec=*/false);
  };

  t1::FlowEngine warm(make_pipeline());  // cone memo on by default
  t1::FlowEngine cold(make_pipeline());
  cold.set_incremental(false);

  io::Json root = io::Json::object();
  root.set("bench", "nearduplicate");
  root.set("config", "t1");
  root.set("phases", opts.phases);
  root.set("runs", opts.bench_runs);
  root.set("verify_rounds", opts.verify_rounds);
  root.set("cec", with_cec);
  root.set("mutants", kMutants);
  io::Json circuits_json = io::Json::object();

  for (const std::string& name : bases) {
    std::cerr << "t1map: bench " << name << " + " << kMutants
              << " mutants (" << opts.bench_runs << " runs) ..." << std::endl;
    const Aig base = gen::make_named(name);

    // Cold reference runs of the base itself.
    CircuitBench base_bench;
    t1::FlowStats base_stats;
    for (int run = 0; run < opts.bench_runs; ++run) {
      const Clock::time_point t0 = Clock::now();
      const t1::EngineResult flow = cold.run(base, params);
      const double run_total =
          std::chrono::duration<double>(Clock::now() - t0).count();
      T1MAP_REQUIRE(flow.ok(), "bench: flow failed on " + name + ": " +
                                   flow.diagnostics.first_error());
      base_bench.map.add(flow.times.map);
      base_bench.t1_detect.add(flow.times.t1_detect);
      base_bench.stage_assign.add(flow.times.stage_assign);
      base_bench.dff_insert.add(flow.times.dff_insert);
      base_bench.self_check.add(flow.times.self_check);
      if (with_cec) base_bench.cec.add(flow.times.cec);
      base_bench.total.add(run_total);
      base_stats = flow.stats;
    }
    io::Json base_entry = io::Json::object();
    base_entry.set("input", serve::aig_input_json(base, /*with_depth=*/false));
    base_entry.set("stats", serve::flow_stats_json(base_stats));
    base_entry.set("stages", bench_json(base_bench, with_cec));
    circuits_json.set(name, std::move(base_entry));

    for (int m = 1; m <= kMutants; ++m) {
      const Aig mutant = fuzz::mutate_aig(
          base, fuzz::MutateOptions{static_cast<std::uint64_t>(m), 1});
      const std::string key = name + "~m" + std::to_string(m);

      // Cold reference: the bit-identity oracle for every warm rep.
      const t1::EngineResult ref = cold.run(mutant, params);
      T1MAP_REQUIRE(ref.ok(), "bench: cold flow failed on " + key + ": " +
                                  ref.diagnostics.first_error());
      const std::string ref_stats = render_json(serve::flow_stats_json(ref.stats));

      CircuitBench bench;
      t1::ReuseCounters reuse;
      t1::FlowStats stats;
      for (int run = 0; run < opts.bench_runs; ++run) {
        // Re-warm the memo with the base (untimed): the previous rep left
        // the mutant's own artifacts in it, which would turn the next rep
        // into an exact-hit measurement instead of a one-gate-edit one.
        (void)warm.run(base, params);

        const Clock::time_point t0 = Clock::now();
        const t1::EngineResult flow = warm.run(mutant, params);
        const double run_total =
            std::chrono::duration<double>(Clock::now() - t0).count();
        T1MAP_REQUIRE(flow.ok(), "bench: warm flow failed on " + key + ": " +
                                     flow.diagnostics.first_error());
        T1MAP_REQUIRE(
            render_json(serve::flow_stats_json(flow.stats)) == ref_stats,
            "bench: warm run of " + key + " diverged from its cold run "
            "(incremental splice is unsound)");
        bench.map.add(flow.times.map);
        bench.t1_detect.add(flow.times.t1_detect);
        bench.stage_assign.add(flow.times.stage_assign);
        bench.dff_insert.add(flow.times.dff_insert);
        bench.self_check.add(flow.times.self_check);
        if (with_cec) bench.cec.add(flow.times.cec);
        bench.total.add(run_total);
        reuse = flow.reuse;
        stats = flow.stats;
      }

      io::Json entry = io::Json::object();
      entry.set("input", serve::aig_input_json(mutant, /*with_depth=*/false));
      entry.set("stats", serve::flow_stats_json(stats));
      entry.set("stages", bench_json(bench, with_cec));
      entry.set("reuse", reuse_json(reuse));
      circuits_json.set(key, std::move(entry));

      std::fprintf(stderr,
                   "t1map: bench %-14s total %.1f ms (map reuse %u/%u)\n",
                   key.c_str(),
                   bench.total.sum / static_cast<double>(bench.total.count),
                   reuse.map_cones_reused, reuse.map_cones_total);
    }
  }
  root.set("circuits", std::move(circuits_json));
  write_bench_out(opts, root);
  return 0;
}

}  // namespace

int run_bench(const Options& opts) {
  if (opts.bench_set == "nearduplicate") return run_bench_nearduplicate(opts);
  // Option validation guarantees --gen and --bench-set are exclusive;
  // an empty bench_set means the default small subset.
  const std::vector<std::string> circuits =
      !opts.gen_name.empty()
          ? std::vector<std::string>{opts.gen_name}
          : (opts.bench_set == "table1"
                 ? gen::table1_names()
                 : (opts.bench_set == "deep" ? deep_set() : small_set()));

  t1::FlowParams params;
  params.num_phases = opts.phases;
  params.use_t1 = true;
  params.verify_rounds = opts.verify_rounds;

  const bool with_cec = opts.run_cec && !opts.skip_checks;
  // One engine for the whole harness: its scratch state (cut arenas, SAT
  // solver, sim buffers) is reused across every --bench-runs repetition and
  // every circuit, which is exactly how a long-lived mapping service runs.
  // The pipeline is the same one report mode would run (--passes is
  // rejected in bench mode, so this is the skip_checks/CEC selection).
  t1::FlowEngine engine(build_pipeline(opts));

  io::Json root = io::Json::object();
  root.set("bench", "flow");
  root.set("config", "t1");
  root.set("phases", opts.phases);
  root.set("runs", opts.bench_runs);
  root.set("verify_rounds", opts.verify_rounds);
  root.set("cec", with_cec);
  io::Json circuits_json = io::Json::object();

  std::vector<Aig> aigs;
  aigs.reserve(circuits.size());
  // Rendered per-circuit stats of the serial measurement; the
  // --bench-threads sweep asserts threaded runs reproduce them exactly.
  std::vector<std::string> baseline_stats;

  for (const std::string& name : circuits) {
    std::cerr << "t1map: bench " << name << " (" << opts.bench_runs
              << " runs) ..." << std::endl;
    aigs.push_back(gen::make_named(name));
    const Aig& aig = aigs.back();
    CircuitBench bench;
    t1::FlowStats stats;

    for (int run = 0; run < opts.bench_runs; ++run) {
      Clock::time_point t0 = Clock::now();
      // Standalone cut enumeration over the source AIG, with the mapper's
      // parameters.  The mapping stage repeats this internally; timing it
      // separately isolates the enumerator from the covering DP.  The
      // engine's arena is reused here too, so this stage also shows the
      // scratch-reuse effect across runs.
      {
        enumerate_cuts_into(aig, params.mapper.cuts, engine.scratch().cuts);
        bench.cut_enum.add(
            std::chrono::duration<double>(Clock::now() - t0).count());
      }

      t0 = Clock::now();
      const t1::EngineResult flow = engine.run(aig, params);
      const double run_total =
          std::chrono::duration<double>(Clock::now() - t0).count();
      T1MAP_REQUIRE(flow.ok(), "bench: flow failed on " + name + ": " +
                                   flow.diagnostics.first_error());
      bench.map.add(flow.times.map);
      bench.t1_detect.add(flow.times.t1_detect);
      bench.stage_assign.add(flow.times.stage_assign);
      bench.dff_insert.add(flow.times.dff_insert);
      bench.self_check.add(flow.times.self_check);
      if (with_cec) {
        T1MAP_REQUIRE(flow.cec == "equivalent",
                      "bench: CEC did not prove equivalence on " + name);
        bench.cec.add(flow.times.cec);
      }
      bench.total.add(run_total);
      stats = flow.stats;
    }

    io::Json entry = io::Json::object();
    entry.set("input", serve::aig_input_json(aig, /*with_depth=*/false));
    entry.set("stats", serve::flow_stats_json(stats));
    entry.set("stages", bench_json(bench, with_cec));
    circuits_json.set(name, std::move(entry));
    baseline_stats.push_back(render_json(serve::flow_stats_json(stats)));

    std::fprintf(stderr, "t1map: bench %-14s total %.1f ms (mean of %d)\n",
                 name.c_str(),
                 bench.total.sum / static_cast<double>(bench.total.count),
                 opts.bench_runs);
  }
  // Intra-netlist scaling sweep: each requested thread count re-times every
  // circuit with the whole budget spent inside the passes (level-parallel
  // mapping) and lands as a NAME@tN pseudo-circuit entry.
  // `total` is wall time; `total_cpu` adds the helper threads' busy time, so
  // total_cpu/total ≈ utilized workers.  Stats must match the serial
  // measurement bit-for-bit — checked here, every sweep, not just in tests.
  for (const int threads : opts.bench_threads) {
    engine.set_threads(threads);
    for (std::size_t c = 0; c < circuits.size(); ++c) {
      const Aig& aig = aigs[c];
      CircuitBench bench;
      StageSamples total_cpu;
      t1::FlowStats stats;
      for (int run = 0; run < opts.bench_runs; ++run) {
        const t1::EngineResult flow = engine.run(aig, params);
        T1MAP_REQUIRE(flow.ok(), "bench: flow failed on " + circuits[c] +
                                     "@t" + std::to_string(threads) + ": " +
                                     flow.diagnostics.first_error());
        bench.map.add(flow.times.map);
        if (with_cec) bench.cec.add(flow.times.cec);
        bench.total.add(flow.times.total_wall);
        total_cpu.add(flow.times.total_cpu);
        stats = flow.stats;
      }
      T1MAP_REQUIRE(
          render_json(serve::flow_stats_json(stats)) == baseline_stats[c],
          "bench: stats of " + circuits[c] + " changed at --threads " +
              std::to_string(threads) + " (thread-count nondeterminism)");

      io::Json stages = io::Json::object();
      stages.set("map", bench.map.json());
      if (with_cec) stages.set("cec", bench.cec.json());
      stages.set("total", bench.total.json());
      stages.set("total_cpu", total_cpu.json());
      io::Json entry = io::Json::object();
      entry.set("threads", threads);
      entry.set("stages", std::move(stages));
      const std::string key =
          circuits[c] + "@t" + std::to_string(threads);
      circuits_json.set(key, std::move(entry));
      std::fprintf(stderr, "t1map: bench %-14s total %.1f ms wall\n",
                   key.c_str(),
                   bench.total.sum /
                       static_cast<double>(bench.total.count));
    }
  }
  if (!opts.bench_threads.empty()) engine.set_threads(1);

  root.set("circuits", std::move(circuits_json));

  // Batched throughput: the whole circuit set through run_many.  With
  // --threads > 1 this measures multi-worker scaling (a single-circuit set
  // still emits the entry, with the worker count clamped to 1); stats must
  // not depend on the thread count, which the engine guarantees and CI's
  // TSan job checks.
  if (opts.threads > 1) {
    std::vector<const Aig*> batch;
    batch.reserve(aigs.size());
    for (const Aig& aig : aigs) batch.push_back(&aig);

    const Clock::time_point t0 = Clock::now();
    const std::vector<t1::EngineResult> results =
        engine.run_many(batch, params, opts.threads);
    const double wall_ms =
        1e3 * std::chrono::duration<double>(Clock::now() - t0).count();
    for (std::size_t i = 0; i < results.size(); ++i) {
      T1MAP_REQUIRE(results[i].ok(), "bench: run_many failed on " +
                                         circuits[i] + ": " +
                                         results[i].diagnostics.first_error());
    }

    io::Json batch_json = io::Json::object();
    batch_json.set("threads", opts.threads);
    batch_json.set("circuits", static_cast<long>(batch.size()));
    batch_json.set("wall_ms", wall_ms);
    root.set("batch", std::move(batch_json));
    std::fprintf(stderr,
                 "t1map: bench batch of %zu circuits on %d threads: %.1f ms\n",
                 batch.size(), opts.threads, wall_ms);
  }

  write_bench_out(opts, root);
  return 0;
}

}  // namespace t1map::cli
