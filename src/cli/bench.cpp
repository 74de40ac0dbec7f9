#include "cli/bench.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/require.hpp"
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
  StageSamples map;  // technology mapping, cut enumeration included
  StageSamples t1_detect;
  StageSamples stage_assign;
  StageSamples dff_insert;
  StageSamples self_check;
  StageSamples cec;
  StageSamples total;

  /// Samples one run: its per-stage times (`cec` only `with_cec`) and its
  /// wall time as measured around the run.
  void add(const t1::StageTimes& times, double run_total, bool with_cec) {
    map.add(times.map);
    t1_detect.add(times.t1_detect);
    stage_assign.add(times.stage_assign);
    dff_insert.add(times.dff_insert);
    self_check.add(times.self_check);
    if (with_cec) cec.add(times.cec);
    total.add(run_total);
  }
};

io::Json bench_json(const CircuitBench& b, bool with_cec) {
  io::Json stages = io::Json::object();
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

/// Every timed run of the flow bench must be cold: a reused pass would time
/// the memo, not the flow.
void require_cold(const t1::ReuseCounters& r, const std::string& name) {
  T1MAP_REQUIRE(r.map_cones_reused == 0 && r.t1_cones_reused == 0 &&
                    !r.t1_exact && !r.stage_spliced,
                "bench: a timed run of " + name + " reused memoized work");
}

/// Near-duplicate measurement (--bench-set nearduplicate): each base circuit
/// is mapped cold as the reference, then one-gate mutants are mapped on an
/// engine whose pass memo was just re-warmed with the base (untimed), so
/// the NAME~mJ timings are a warm engine's cost on a one-gate edit.  Every
/// warm mutant run is checked bit-identical to a cold run of the same
/// mutant — the memo's soundness contract, enforced per rep.
///
/// SAT CEC is always off here: bit-identity against the cold run is the
/// correctness oracle, and miters on mutated arithmetic can take seconds —
/// they would time the SAT solver, not the engine.  The random-sim
/// self-check runs unless --verify-rounds 0.
int run_bench_nearduplicate(const Options& opts) {
  static const std::vector<std::string> bases = {"adder64", "mul8",
                                                 "cordic28"};
  constexpr int kMutants = 3;

  t1::FlowParams params;
  params.num_phases = opts.phases;
  params.use_t1 = true;
  params.verify_rounds = opts.verify_rounds;
  t1::FlowEngine warm;  // default flow without CEC; pass memo on
  t1::FlowEngine cold;
  cold.set_incremental(false);

  io::Json root = io::Json::object();
  root.set("bench", "nearduplicate");
  root.set("config", "t1");
  root.set("phases", opts.phases);
  root.set("runs", opts.bench_runs);
  root.set("verify_rounds", opts.verify_rounds);
  root.set("cec", false);
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
      base_bench.add(flow.times, run_total, /*with_cec=*/false);
      base_stats = flow.stats;
    }
    io::Json base_entry = io::Json::object();
    base_entry.set("input", serve::aig_input_json(base, /*with_depth=*/false));
    base_entry.set("stats", serve::flow_stats_json(base_stats));
    base_entry.set("stages", bench_json(base_bench, /*with_cec=*/false));
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
            "(the pass memo is unsound)");
        bench.add(flow.times, run_total, /*with_cec=*/false);
        reuse = flow.reuse;
        stats = flow.stats;
      }

      io::Json entry = io::Json::object();
      entry.set("input", serve::aig_input_json(mutant, /*with_depth=*/false));
      entry.set("stats", serve::flow_stats_json(stats));
      entry.set("stages", bench_json(bench, /*with_cec=*/false));
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

  const bool with_cec = opts.run_cec;
  // One engine for the whole harness: its scratch state (cut arenas, SAT
  // solver, sim buffers) is reused across every --bench-runs repetition and
  // every circuit, which is exactly how a long-lived mapping service runs.
  // It runs the flow report mode would run.  The pass memo is off: with
  // it, every repetition after the first would reuse the previous one and
  // time the memo, not the flow.  Warm runs are the nearduplicate set's
  // business.
  t1::FlowEngine engine(t1::Pipeline::default_flow(with_cec));
  engine.set_incremental(false);

  io::Json root = io::Json::object();
  root.set("bench", "flow");
  root.set("regime", "cold");
  root.set("config", "t1");
  root.set("phases", opts.phases);
  root.set("runs", opts.bench_runs);
  root.set("verify_rounds", opts.verify_rounds);
  root.set("cec", with_cec);
  io::Json circuits_json = io::Json::object();

  std::vector<Aig> aigs;
  aigs.reserve(circuits.size());

  for (const std::string& name : circuits) {
    std::cerr << "t1map: bench " << name << " (" << opts.bench_runs
              << " runs) ..." << std::endl;
    aigs.push_back(gen::make_named(name));
    const Aig& aig = aigs.back();
    CircuitBench bench;
    t1::FlowStats stats;

    for (int run = 0; run < opts.bench_runs; ++run) {
      const Clock::time_point t0 = Clock::now();
      const t1::EngineResult flow = engine.run(aig, params);
      const double run_total =
          std::chrono::duration<double>(Clock::now() - t0).count();
      T1MAP_REQUIRE(flow.ok(), "bench: flow failed on " + name + ": " +
                                   flow.diagnostics.first_error());
      require_cold(flow.reuse, name);
      T1MAP_REQUIRE(!with_cec || flow.cec == "equivalent",
                    "bench: CEC did not prove equivalence on " + name);
      bench.add(flow.times, run_total, with_cec);
      stats = flow.stats;
    }

    io::Json entry = io::Json::object();
    entry.set("input", serve::aig_input_json(aig, /*with_depth=*/false));
    entry.set("stats", serve::flow_stats_json(stats));
    entry.set("stages", bench_json(bench, with_cec));
    circuits_json.set(name, std::move(entry));

    std::fprintf(stderr, "t1map: bench %-14s total %.1f ms (mean of %d)\n",
                 name.c_str(),
                 bench.total.sum / static_cast<double>(bench.total.count),
                 opts.bench_runs);
  }
  root.set("circuits", std::move(circuits_json));

  // Batched throughput: the whole circuit set through run_many on
  // --threads workers, one circuit per worker at a time.  Runs at 1, 2 and
  // 4 threads give the batch scaling row (a single-circuit set still emits
  // the entry, with one worker taking the job); stats must not depend on
  // the thread count, which the engine guarantees and CI's TSan job checks.
  std::vector<t1::FlowJob> batch;
  batch.reserve(aigs.size());
  for (const Aig& aig : aigs) batch.push_back({&aig, params});

  engine.set_threads(opts.threads);
  const Clock::time_point t0 = Clock::now();
  const std::vector<t1::EngineResult> results = engine.run_many(batch);
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

  write_bench_out(opts, root);
  return 0;
}

}  // namespace t1map::cli
