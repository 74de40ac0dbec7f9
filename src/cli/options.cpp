#include "cli/options.hpp"

#include <charconv>

#include "t1/flow_engine.hpp"

namespace t1map::cli {

namespace {

/// Integer flag parsing with precise diagnostics: every failure mode names
/// the flag, the offending value, and what exactly was wrong with it.
int parse_int(const std::string& flag, const std::string& value, int lo,
              int hi) {
  int parsed = 0;
  const char* begin = value.data();
  const char* end = begin + value.size();
  const auto [ptr, ec] = std::from_chars(begin, end, parsed);
  if (ec == std::errc::result_out_of_range) {
    throw UsageError(flag + ": value '" + value +
                     "' does not fit in an integer");
  }
  if (ec != std::errc() || ptr == begin) {
    throw UsageError(flag + " expects an integer, got '" + value + "'");
  }
  if (ptr != end) {
    throw UsageError(flag + ": trailing garbage '" + std::string(ptr, end) +
                     "' after integer in '" + value + "'");
  }
  if (parsed < lo || parsed > hi) {
    throw UsageError(flag + " must be in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "], got " + std::to_string(parsed));
  }
  return parsed;
}

/// Validates a --passes list by running it through the engine's own parser
/// (one grammar, no drift), so typos fail as usage errors — with the
/// accepted names — before any flow runs.
void validate_passes(const std::string& spec) {
  try {
    (void)t1::Pipeline::parse(spec);
  } catch (const ContractError& e) {
    std::string known;
    for (const std::string& name : t1::Pipeline::known_passes()) {
      if (!known.empty()) known += '|';
      known += name;
    }
    throw UsageError("--passes: " + std::string(e.what()) +
                     " (accepted: " + known + ")");
  }
}

}  // namespace

Options parse_options(int argc, const char* const* argv) {
  Options opts;
  std::vector<std::string> args(argv + 1, argv + argc);
  // First bench-harness / serve-mode flag seen, for the "needs --bench" /
  // "needs --serve" diagnostics.
  std::string bench_only_flag;
  std::string serve_only_flag;
  std::string fuzz_only_flag;

  const auto value_of = [&](std::size_t& i) -> std::string {
    if (i + 1 >= args.size()) {
      throw UsageError(args[i] + " expects a value");
    }
    return args[++i];
  };

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--gen") {
      opts.gen_name = value_of(i);
    } else if (arg == "--blif") {
      opts.blif_path = value_of(i);
    } else if (arg == "--input") {
      opts.input_path = value_of(i);
      if (opts.input_path.empty()) {
        throw UsageError("--input expects a file path ('-' = stdin)");
      }
    } else if (arg == "--config") {
      opts.config = value_of(i);
      if (opts.config != "all" && opts.config != "1phi" &&
          opts.config != "nphi" && opts.config != "t1") {
        throw UsageError("--config must be one of all|1phi|nphi|t1, got '" +
                         opts.config + "'");
      }
    } else if (arg == "--phases") {
      opts.phases = parse_int(arg, value_of(i), 1, 64);
    } else if (arg == "--verify-rounds") {
      opts.verify_rounds = parse_int(arg, value_of(i), 0, 1 << 20);
    } else if (arg == "--no-cec") {
      opts.run_cec = false;
    } else if (arg == "--threads") {
      opts.threads = parse_int(arg, value_of(i), 1, 256);
    } else if (arg == "--skip-checks") {
      opts.skip_checks = true;
    } else if (arg == "--passes") {
      opts.passes = value_of(i);
      validate_passes(opts.passes);
    } else if (arg == "--bench") {
      opts.bench = true;
    } else if (arg == "--bench-runs") {
      bench_only_flag = arg;
      opts.bench_runs = parse_int(arg, value_of(i), 1, 1000);
    } else if (arg == "--bench-set") {
      bench_only_flag = arg;
      opts.bench_set = value_of(i);
      if (opts.bench_set != "small" && opts.bench_set != "table1" &&
          opts.bench_set != "deep" && opts.bench_set != "nearduplicate") {
        throw UsageError(
            "--bench-set must be small|table1|deep|nearduplicate, got '" +
            opts.bench_set + "'");
      }
    } else if (arg == "--bench-out") {
      bench_only_flag = arg;
      opts.bench_out = value_of(i);
    } else if (arg == "--bench-threads") {
      bench_only_flag = arg;
      const std::string list = value_of(i);
      opts.bench_threads.clear();
      std::size_t begin = 0;
      while (begin <= list.size()) {
        std::size_t end = list.find(',', begin);
        if (end == std::string::npos) end = list.size();
        opts.bench_threads.push_back(
            parse_int(arg, list.substr(begin, end - begin), 1, 256));
        begin = end + 1;
      }
    } else if (arg == "--serve") {
      opts.serve = true;
    } else if (arg == "--cache-mb") {
      serve_only_flag = arg;
      opts.cache_mb = parse_int(arg, value_of(i), 1, 1 << 16);
    } else if (arg == "--serve-in") {
      serve_only_flag = arg;
      opts.serve_in = value_of(i);
    } else if (arg == "--serve-batch") {
      serve_only_flag = arg;
      opts.serve_batch = parse_int(arg, value_of(i), 1, 4096);
    } else if (arg == "--serve-listen") {
      serve_only_flag = arg;
      opts.serve_listen = value_of(i);
      if (opts.serve_listen.empty()) {
        throw UsageError("--serve-listen expects unix:PATH or tcp:HOST:PORT");
      }
    } else if (arg == "--cache-dir") {
      serve_only_flag = arg;
      opts.cache_dir = value_of(i);
      if (opts.cache_dir.empty()) {
        throw UsageError("--cache-dir expects a directory path");
      }
    } else if (arg == "--drain-timeout") {
      serve_only_flag = arg;
      opts.drain_timeout_ms = parse_int(arg, value_of(i), 0, 1 << 30);
    } else if (arg == "--serve-idle") {
      serve_only_flag = arg;
      opts.serve_idle_ms = parse_int(arg, value_of(i), 0, 1 << 30);
    } else if (arg == "--fuzz") {
      opts.fuzz = parse_int(arg, value_of(i), 1, 1 << 20);
    } else if (arg == "--fuzz-seed") {
      fuzz_only_flag = arg;
      opts.fuzz_seed = static_cast<std::uint64_t>(
          parse_int(arg, value_of(i), 0, 1 << 30));
    } else if (arg == "--fuzz-dir") {
      fuzz_only_flag = arg;
      opts.fuzz_dir = value_of(i);
      if (opts.fuzz_dir.empty()) {
        throw UsageError("--fuzz-dir expects a directory path");
      }
    } else if (arg == "--fuzz-nodes") {
      fuzz_only_flag = arg;
      opts.fuzz_nodes = parse_int(arg, value_of(i), 5, 1 << 16);
    } else if (arg == "--fuzz-mutate") {
      fuzz_only_flag = arg;
      opts.fuzz_mutate = parse_int(arg, value_of(i), 0, 64);
    } else if (arg == "--incremental-from") {
      opts.incremental_from = value_of(i);
      if (opts.incremental_from.empty()) {
        throw UsageError("--incremental-from expects a file path");
      }
    } else if (arg == "--json") {
      opts.json = true;
    } else if (arg == "--out-blif") {
      opts.out_blif = value_of(i);
    } else if (arg == "--out-dot") {
      opts.out_dot = value_of(i);
    } else if (arg == "--export-aiger") {
      opts.out_aiger = value_of(i);
    } else if (arg == "--export-verilog") {
      opts.out_verilog = value_of(i);
    } else if (arg == "--paper") {
      opts.paper = true;
    } else if (arg == "--list-gens") {
      opts.list_gens = true;
    } else if (arg == "--help" || arg == "-h") {
      opts.help = true;
    } else {
      throw UsageError("unknown argument '" + arg + "' (see --help)");
    }
  }

  if (opts.help || opts.list_gens) return opts;
  if (!opts.bench && !bench_only_flag.empty()) {
    throw UsageError(bench_only_flag +
                     " configures the bench harness and needs --bench");
  }
  if (!opts.serve && !serve_only_flag.empty()) {
    throw UsageError(serve_only_flag +
                     " configures the serving loop and needs --serve");
  }
  if (opts.fuzz == 0 && !fuzz_only_flag.empty()) {
    throw UsageError(fuzz_only_flag +
                     " configures the differential fuzzer and needs --fuzz N");
  }
  if (opts.fuzz > 0) {
    if (opts.bench || opts.serve) {
      throw UsageError("--fuzz is its own run mode; it conflicts with "
                       "--bench/--serve");
    }
    if (!opts.gen_name.empty() || !opts.blif_path.empty() ||
        !opts.input_path.empty()) {
      throw UsageError("--fuzz generates its own random circuits; "
                       "--gen/--blif/--input do not apply");
    }
    if (!opts.passes.empty() || opts.skip_checks) {
      throw UsageError("--fuzz always runs the full differential pipeline; "
                       "--passes/--skip-checks do not apply");
    }
    if (!opts.incremental_from.empty()) {
      throw UsageError("--incremental-from primes a report-mode run; for "
                       "incremental coverage under --fuzz use --fuzz-mutate");
    }
    if (opts.config != "all") {
      throw UsageError("--fuzz always runs all three configurations; "
                       "--config " + opts.config + " has no effect there");
    }
    if (opts.json || opts.paper || !opts.out_blif.empty() ||
        !opts.out_dot.empty() || !opts.out_aiger.empty() ||
        !opts.out_verilog.empty()) {
      throw UsageError("report/export options do not apply to --fuzz "
                       "(repro .aag files land in --fuzz-dir)");
    }
    if (opts.phases < 3) {
      throw UsageError("--fuzz runs the t1 configuration and needs "
                       "--phases >= 3");
    }
    return opts;
  }
  if (opts.skip_checks && !opts.passes.empty()) {
    throw UsageError("--skip-checks and --passes both select the pipeline; "
                     "use one of them");
  }
  if (opts.serve) {
    if (opts.bench) {
      throw UsageError("--serve and --bench are different run modes; "
                       "pick one");
    }
    // Serve mode takes its work from the request stream; per-job fields
    // override the CLI defaults (--phases, --verify-rounds, --no-cec).
    if (!opts.gen_name.empty() || !opts.blif_path.empty() ||
        !opts.input_path.empty()) {
      throw UsageError("--serve reads its circuits from the JSONL request "
                       "stream; --gen/--blif/--input do not apply");
    }
    if (!opts.passes.empty()) {
      throw UsageError("--serve selects pipelines per request config; "
                       "--passes does not apply (use --skip-checks to drop "
                       "the verification stages)");
    }
    if (opts.config != "all") {
      throw UsageError("--serve jobs carry their own \"config\" field; "
                       "--config " + opts.config + " has no effect there");
    }
    if (opts.json || opts.paper || !opts.out_blif.empty() ||
        !opts.out_dot.empty() || !opts.out_aiger.empty() ||
        !opts.out_verilog.empty()) {
      throw UsageError("--json/--paper and the export options do not apply "
                       "to --serve (responses are always JSONL on stdout)");
    }
    if (!opts.incremental_from.empty()) {
      throw UsageError("--incremental-from is a report-mode option; serve "
                       "mode reuses cones across its request stream on its "
                       "own");
    }
    if (opts.phases < 3) {
      throw UsageError("--serve defaults jobs to the t1 configuration and "
                       "needs --phases >= 3");
    }
    if (!opts.serve_listen.empty() && opts.serve_in != "-") {
      throw UsageError("--serve-listen and --serve-in select different "
                       "transports; use one of them");
    }
    if (opts.serve_listen.empty() && opts.serve_idle_ms != 0) {
      throw UsageError("--serve-idle bounds socket connections and needs "
                       "--serve-listen");
    }
    return opts;
  }
  if (opts.bench) {
    if (!opts.passes.empty()) {
      throw UsageError("--bench times the fixed Table-I pipeline; --passes "
                       "is a report-mode option (use --skip-checks to drop "
                       "the verification stages)");
    }
    // Bench mode runs a built-in circuit set; --gen narrows it to one
    // circuit, --blif is not supported there.
    if (!opts.blif_path.empty() || !opts.input_path.empty()) {
      throw UsageError("--bench works on generated circuits; use --gen NAME "
                       "to bench a single one");
    }
    if (opts.phases < 3) {
      throw UsageError("--bench times the t1 configuration and needs "
                       "--phases >= 3");
    }
    if (!opts.gen_name.empty() && !opts.bench_set.empty()) {
      throw UsageError("--gen benches a single circuit; it conflicts with "
                       "--bench-set " + opts.bench_set);
    }
    if (!opts.incremental_from.empty()) {
      throw UsageError("--incremental-from is a report-mode option; "
                       "--bench-set nearduplicate is the bench-mode "
                       "incremental measurement");
    }
    // Reject report-mode options bench mode would otherwise ignore.
    if (opts.config != "all" && opts.config != "t1") {
      throw UsageError("--bench always times the t1 configuration; "
                       "--config " + opts.config + " has no effect there");
    }
    if (opts.json || opts.paper || !opts.out_blif.empty() ||
        !opts.out_dot.empty() || !opts.out_aiger.empty() ||
        !opts.out_verilog.empty()) {
      throw UsageError("--json/--paper and the export options do not apply "
                       "to --bench (use --bench-out for the JSON trajectory)");
    }
    return opts;
  }
  const int num_inputs = (opts.gen_name.empty() ? 0 : 1) +
                         (opts.blif_path.empty() ? 0 : 1) +
                         (opts.input_path.empty() ? 0 : 1);
  if (num_inputs != 1) {
    throw UsageError(
        "exactly one of --gen NAME, --blif FILE or --input FILE is required");
  }
  // T1 substitution needs >= 3 phases; fail before any config runs.
  if ((opts.config == "all" || opts.config == "t1") && opts.phases < 3) {
    throw UsageError("the t1 configuration needs --phases >= 3 (got " +
                     std::to_string(opts.phases) +
                     "); use --config 1phi|nphi for fewer phases");
  }
  return opts;
}

std::string usage() {
  return
      "t1map — T1-aware SFQ technology mapping (DAC'24 flow)\n"
      "\n"
      "Runs the Table-I configurations (1-phase baseline, n-phase baseline,\n"
      "n-phase + T1 cells) on a generated or BLIF-supplied circuit, verifies\n"
      "each result against the source by SAT equivalence checking, and\n"
      "reports JJ area, path-balancing DFFs and depth per configuration.\n"
      "\n"
      "Usage:\n"
      "  t1map --gen NAME   [options]    map a generated benchmark\n"
      "  t1map --blif FILE  [options]    map a BLIF file ('-' = stdin)\n"
      "  t1map --input FILE [options]    map an AIGER (.aag/.aig) or BLIF\n"
      "                                  file, auto-detected ('-' = stdin)\n"
      "  t1map --serve      [options]    cached JSONL serving loop\n"
      "  t1map --fuzz N     [options]    differential fuzzing of the flow\n"
      "\n"
      "Options:\n"
      "  --config all|1phi|nphi|t1   configurations to run (default: all)\n"
      "  --phases N                  clock phases for nphi/t1 (default: 4)\n"
      "  --json                      machine-readable JSON report on stdout\n"
      "  --no-cec                    skip SAT equivalence checking\n"
      "  --verify-rounds N           random-sim self-check rounds (default 8)\n"
      "  --threads N                 worker threads: report mode runs the\n"
      "                              configurations in parallel, bench mode\n"
      "                              adds a batched run_many measurement.\n"
      "                              Threads left over after one per netlist\n"
      "                              spill into the passes (parallel\n"
      "                              mapping); results are identical at\n"
      "                              every thread count\n"
      "  --skip-checks               drop the verification passes (timing,\n"
      "                              random-sim, CEC) from the pipeline\n"
      "  --passes LIST               explicit pass pipeline, comma-separated\n"
      "                              (map,t1,stage,dff,timing,sim,cec);\n"
      "                              overrides --no-cec, report mode only\n"
      "  --bench                     measure per-stage wall times and write\n"
      "                              a BENCH_flow.json trajectory file\n"
      "  --bench-runs N              repetitions per circuit (default 3;\n"
      "                              with 1 run the JSON omits the mean/max\n"
      "                              jitter fields)\n"
      "  --bench-set small|table1|deep|nearduplicate\n"
      "                              circuit set (default small; table1 runs\n"
      "                              the paper-size benchmarks, deep the\n"
      "                              long-chain adder256/cordic32/log2_16,\n"
      "                              nearduplicate one-gate mutants mapped on\n"
      "                              a base-circuit-warmed engine — the\n"
      "                              incremental-mapping measurement)\n"
      "  --bench-out FILE            bench output path ('-' = stdout;\n"
      "                              default BENCH_flow.json)\n"
      "  --bench-threads LIST        comma-separated thread counts (e.g.\n"
      "                              1,2,4): re-times each circuit with the\n"
      "                              whole budget inside the passes and\n"
      "                              emits NAME@tN scaling entries with\n"
      "                              wall vs. CPU totals\n"
      "  --serve                     serve JSONL mapping requests (one JSON\n"
      "                              object per line; responses on stdout in\n"
      "                              request order; see README \"Serving\n"
      "                              mode\").  Misses run on --threads\n"
      "                              workers; results are memoized\n"
      "  --cache-mb N                serve-mode result-cache byte budget in\n"
      "                              MiB (default 256)\n"
      "  --serve-in FILE             read requests from FILE instead of\n"
      "                              stdin ('-'; named FIFOs work)\n"
      "  --serve-batch N             max requests per dispatch batch\n"
      "                              (default 16)\n"
      "  --serve-listen ADDR         serve over a socket instead of stdin:\n"
      "                              unix:PATH or tcp:HOST:PORT (port 0 =\n"
      "                              ephemeral, printed on stderr).  Each\n"
      "                              client gets its own session over the\n"
      "                              shared cache\n"
      "  --cache-dir DIR             persistent second cache tier: results\n"
      "                              are logged to DIR and warm-start the\n"
      "                              next server (created when missing)\n"
      "  --drain-timeout MS          shutdown grace for in-flight batches\n"
      "                              (default 5000)\n"
      "  --serve-idle MS             disconnect socket clients idle longer\n"
      "                              than MS (default: never)\n"
      "  --fuzz N                    run N differential-fuzz iterations:\n"
      "                              each seeded random AIG goes through all\n"
      "                              three configurations at 1 and --threads\n"
      "                              workers with SAT CEC as the oracle,\n"
      "                              plus AIGER/BLIF round-trip checks;\n"
      "                              failures are minimized to .aag repros\n"
      "  --fuzz-seed S               base PRNG seed (default 1); every\n"
      "                              finding reproduces from (S, N)\n"
      "  --fuzz-dir DIR              where minimized repro .aag files land\n"
      "                              (default fuzz-repros)\n"
      "  --fuzz-nodes M              max operator draws per random AIG\n"
      "                              (default 60)\n"
      "  --fuzz-mutate K             per iteration, also map K one-gate\n"
      "                              mutants of the AIG on a memo-warmed\n"
      "                              engine and assert bit-identity with a\n"
      "                              cold engine (default 0 = off)\n"
      "  --incremental-from FILE     map FILE (AIGER or BLIF) first to warm\n"
      "                              the engine's cone memo, then map the\n"
      "                              requested circuit incrementally; the\n"
      "                              report shows per-pass reuse counters.\n"
      "                              Results are bit-identical either way\n"
      "  --out-blif FILE             write the mapped netlist as BLIF\n"
      "  --out-dot FILE              write a stage-annotated DOT graph\n"
      "  --export-aiger FILE         write the source AIG as AIGER (binary\n"
      "                              when FILE ends in .aig, ASCII otherwise)\n"
      "  --export-verilog FILE       write the mapped netlist as structural\n"
      "                              Verilog (SFQ primitives with STAGE\n"
      "                              parameters; behavioral models appended\n"
      "                              for co-simulation)\n"
      "  --paper                     also print the published Table-I row\n"
      "  --list-gens                 list accepted generator names\n"
      "  --help                      this text\n"
      "\n"
      "Examples:\n"
      "  t1map --serve --threads 4 --cache-mb 512\n"
      "  t1map --bench --bench-runs 5 --threads 4\n"
      "  t1map --gen adder16 --config all\n"
      "  t1map --gen mul8 --passes map,t1,stage,dff --json\n"
      "  t1map --gen adder16 --config all --json\n"
      "  t1map --gen c6288 --phases 6 --config t1 --out-blif c6288_t1.blif\n"
      "  t1map --blif design.blif --config t1 --out-dot design.dot\n"
      "  t1map --input design.aig --config t1 --export-verilog design.v\n"
      "  t1map --fuzz 200 --fuzz-seed 7 --threads 4\n";
}

}  // namespace t1map::cli
