#include "cli/options.hpp"

#include <charconv>
#include <vector>

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

/// The run modes.  A mode-specific flag names the modes that read it.
enum Mode : unsigned { kReport = 1, kBench = 2, kServe = 4, kFuzz = 8 };

struct ScopedFlag {
  const char* flag;
  unsigned modes;
};

/// Every flag that some run mode does not read.  --phases, --verify-rounds
/// and --threads apply to every mode; --config is scoped by its value.
constexpr ScopedFlag kScopedFlags[] = {
    {"--gen", kReport | kBench},
    {"--input", kReport},
    {"--no-cec", kReport | kBench | kServe},
    {"--incremental-from", kReport},
    {"--json", kReport},
    {"--paper", kReport},
    {"--out-blif", kReport},
    {"--out-dot", kReport},
    {"--export-aiger", kReport},
    {"--export-verilog", kReport},
    {"--bench-runs", kBench},
    {"--bench-set", kBench},
    {"--bench-out", kBench},
    {"--cache-mb", kServe},
    {"--serve-batch", kServe},
    {"--serve-listen", kServe},
    {"--cache-dir", kServe},
    {"--drain-timeout", kServe},
    {"--serve-idle", kServe},
    {"--fuzz-seed", kFuzz},
    {"--fuzz-dir", kFuzz},
    {"--fuzz-nodes", kFuzz},
    {"--fuzz-mutate", kFuzz},
};

std::string mode_names(unsigned modes) {
  // names[m] is the mode whose bit is 1 << m.
  const char* const names[] = {"report mode (--gen/--input)", "--bench",
                               "--serve", "--fuzz"};
  std::string out;
  for (int m = 0; m < 4; ++m) {
    if ((modes >> m & 1) == 0) continue;
    out += (out.empty() ? "" : ", ") + std::string(names[m]);
  }
  return out;
}

}  // namespace

Options parse_options(int argc, const char* const* argv) {
  Options opts;
  std::vector<std::string> args(argv + 1, argv + argc);
  std::vector<const ScopedFlag*> scoped;

  const auto value_of = [&](std::size_t& i) -> std::string {
    if (i + 1 >= args.size()) {
      throw UsageError(args[i] + " expects a value");
    }
    return args[++i];
  };

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    for (const ScopedFlag& s : kScopedFlags) {
      if (arg == s.flag) scoped.push_back(&s);
    }
    if (arg == "--gen") {
      opts.gen_name = value_of(i);
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
    } else if (arg == "--bench") {
      opts.bench = true;
    } else if (arg == "--bench-runs") {
      opts.bench_runs = parse_int(arg, value_of(i), 1, 1000);
    } else if (arg == "--bench-set") {
      opts.bench_set = value_of(i);
      if (opts.bench_set != "small" && opts.bench_set != "table1" &&
          opts.bench_set != "deep" && opts.bench_set != "nearduplicate") {
        throw UsageError(
            "--bench-set must be small|table1|deep|nearduplicate, got '" +
            opts.bench_set + "'");
      }
    } else if (arg == "--bench-out") {
      opts.bench_out = value_of(i);
    } else if (arg == "--serve") {
      opts.serve = true;
    } else if (arg == "--cache-mb") {
      opts.cache_mb = parse_int(arg, value_of(i), 1, 1 << 16);
    } else if (arg == "--serve-batch") {
      opts.serve_batch = parse_int(arg, value_of(i), 1, 4096);
    } else if (arg == "--serve-listen") {
      opts.serve_listen = value_of(i);
      if (opts.serve_listen.empty()) {
        throw UsageError("--serve-listen expects unix:PATH or tcp:HOST:PORT");
      }
    } else if (arg == "--cache-dir") {
      opts.cache_dir = value_of(i);
      if (opts.cache_dir.empty()) {
        throw UsageError("--cache-dir expects a directory path");
      }
    } else if (arg == "--drain-timeout") {
      opts.drain_timeout_ms = parse_int(arg, value_of(i), 0, 1 << 30);
    } else if (arg == "--serve-idle") {
      opts.serve_idle_ms = parse_int(arg, value_of(i), 0, 1 << 30);
    } else if (arg == "--fuzz") {
      opts.fuzz = parse_int(arg, value_of(i), 1, 1 << 20);
    } else if (arg == "--fuzz-seed") {
      opts.fuzz_seed = static_cast<std::uint64_t>(
          parse_int(arg, value_of(i), 0, 1 << 30));
    } else if (arg == "--fuzz-dir") {
      opts.fuzz_dir = value_of(i);
      if (opts.fuzz_dir.empty()) {
        throw UsageError("--fuzz-dir expects a directory path");
      }
    } else if (arg == "--fuzz-nodes") {
      opts.fuzz_nodes = parse_int(arg, value_of(i), 5, 1 << 16);
    } else if (arg == "--fuzz-mutate") {
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
  if (opts.bench + opts.serve + (opts.fuzz > 0) > 1) {
    throw UsageError("--bench, --serve and --fuzz are different run modes; "
                     "pick one");
  }
  const Mode mode = opts.bench      ? kBench
                    : opts.serve    ? kServe
                    : opts.fuzz > 0 ? kFuzz
                                    : kReport;
  const auto require_scope = [mode](const std::string& flag, unsigned modes) {
    if ((modes & mode) != 0) return;
    throw UsageError(flag + " does not apply to " + mode_names(mode) +
                     "; it is read by " + mode_names(modes));
  };
  for (const ScopedFlag* s : scoped) require_scope(s->flag, s->modes);
  // A repeated --config keeps its last value, so it is scoped here.  "all"
  // is every mode's default; bench mode times t1 alone.
  if (opts.config != "all") {
    require_scope("--config " + opts.config,
                  opts.config == "t1" ? kReport | kBench : kReport);
  }

  if (mode == kReport && opts.gen_name.empty() == opts.input_path.empty()) {
    throw UsageError("exactly one of --gen NAME or --input FILE is required");
  }
  // Only bench mode reads --bench-set, and only serve mode --serve-idle.
  if (!opts.gen_name.empty() && !opts.bench_set.empty()) {
    throw UsageError("--gen benches a single circuit; it conflicts with "
                     "--bench-set " + opts.bench_set);
  }
  if (opts.serve_listen.empty() && opts.serve_idle_ms != 0) {
    throw UsageError("--serve-idle bounds socket connections and needs "
                     "--serve-listen");
  }
  // Every mode but a 1phi or nphi report runs the t1 configuration.
  if (opts.config != "1phi" && opts.config != "nphi" && opts.phases < 3) {
    throw UsageError("the t1 configuration needs --phases >= 3 (got " +
                     std::to_string(opts.phases) + "); only a report with "
                     "--config 1phi|nphi runs on fewer");
  }
  return opts;
}

std::string usage() {
  return
      "t1map — T1-aware SFQ technology mapping (DAC'24 flow)\n"
      "\n"
      "Runs the Table-I configurations (1-phase baseline, n-phase baseline,\n"
      "n-phase + T1 cells) on a generated or BLIF-supplied circuit.  Each\n"
      "one maps the circuit, substitutes T1 cells (t1 only), assigns stages\n"
      "and inserts DFFs, then checks the result: timing, random simulation\n"
      "and SAT equivalence against the source.  The report gives JJ area,\n"
      "path-balancing DFFs and depth per configuration.\n"
      "\n"
      "Usage:\n"
      "  t1map --gen NAME   [options]    map a generated benchmark\n"
      "  t1map --input FILE [options]    map an AIGER (.aag/.aig) or BLIF\n"
      "                                  file, auto-detected ('-' = stdin)\n"
      "  t1map --bench      [options]    per-stage timing harness\n"
      "  t1map --serve      [options]    cached JSONL serving loop\n"
      "  t1map --fuzz N     [options]    differential fuzzing of the flow\n"
      "  A flag outside its run mode is a usage error.\n"
      "\n"
      "Options:\n"
      "  --config all|1phi|nphi|t1   configurations to run (default: all)\n"
      "  --phases N                  clock phases for nphi/t1 (default: 4)\n"
      "  --json                      machine-readable JSON report on stdout\n"
      "  --no-cec                    skip SAT equivalence checking\n"
      "  --verify-rounds N           random-sim self-check rounds (default 8;\n"
      "                              0 skips it; with --no-cec as well, only\n"
      "                              the timing check runs)\n"
      "  --threads N                 worker threads, one netlist per worker:\n"
      "                              report mode runs the configurations in\n"
      "                              parallel (one after another under\n"
      "                              --incremental-from), bench mode times a\n"
      "                              batched run_many of the whole set;\n"
      "                              results are identical at every thread\n"
      "                              count\n"
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
      "                              an engine warmed with the base circuit,\n"
      "                              each rep checked bit-identical to a\n"
      "                              cold run)\n"
      "  --bench-out FILE            bench output path ('-' = stdout;\n"
      "                              default BENCH_flow.json)\n"
      "  --serve                     serve JSONL mapping requests (one JSON\n"
      "                              object per line; responses on stdout in\n"
      "                              request order; see README \"Serving\n"
      "                              mode\").  Misses run on --threads\n"
      "                              workers; results are memoized\n"
      "  --cache-mb N                serve-mode result-cache byte budget in\n"
      "                              MiB (default 256)\n"
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
      "                              mutants of the AIG on an engine warmed\n"
      "                              with the AIG and assert bit-identity\n"
      "                              with a cold engine (default 0 = off)\n"
      "  --incremental-from FILE     map FILE (AIGER or BLIF) first, then\n"
      "                              the requested circuit on the same\n"
      "                              engine: each pass whose input and\n"
      "                              parameters match FILE's run reuses its\n"
      "                              result, the rest recompute; the report\n"
      "                              shows per-pass reuse counters.\n"
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
      "  t1map --gen adder16 --config all --json\n"
      "  t1map --gen c6288 --phases 6 --config t1 --out-blif c6288_t1.blif\n"
      "  t1map --input design.blif --config t1 --out-dot design.dot\n"
      "  t1map --input design.aig --config t1 --export-verilog design.v\n"
      "  t1map --fuzz 200 --fuzz-seed 7 --threads 4\n";
}

}  // namespace t1map::cli
