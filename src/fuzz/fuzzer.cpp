#include "fuzz/fuzzer.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <utility>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "fuzz/mutate.hpp"
#include "io/aiger.hpp"
#include "io/blif.hpp"
#include "sat/cec.hpp"
#include "serve/aig_hash.hpp"
#include "t1/flow_engine.hpp"

namespace t1map::fuzz {

namespace {

struct Config {
  std::string key;
  t1::FlowParams params;
};

std::vector<Config> make_configs(const FuzzOptions& options) {
  std::vector<Config> configs;
  for (const t1::TableConfig config :
       {t1::TableConfig::k1phi, t1::TableConfig::kNphi, t1::TableConfig::kT1}) {
    t1::FlowParams params = t1::table_params(config, options.phases);
    params.verify_rounds = options.verify_rounds;
    configs.push_back({t1::config_key(config, options.phases), params});
  }
  return configs;
}

/// First failed check ("" = all pass).
struct Outcome {
  std::string check;
  std::string detail;
  bool failed() const { return !check.empty(); }
};

Lit xlate(Lit l, const std::vector<Lit>& map) {
  T1MAP_ASSERT(map[lit_node(l)] != Aig::kUnmapped);
  return lit_notif(map[lit_node(l)], lit_is_complemented(l));
}

/// Copies `aig` with `new_pos` as the PO list (literals in `aig`'s space),
/// dropping cones no surviving PO observes.  PIs are all preserved.
Aig rebuild_with_pos(const Aig& aig,
                     const std::vector<std::pair<Lit, std::string>>& new_pos) {
  Aig out;
  std::vector<Lit> map(aig.num_nodes(), Aig::kUnmapped);
  map[0] = Aig::kConst0;
  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    map[aig.pis()[i]] = out.create_pi(aig.pi_name(i));
  }
  for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
    if (!aig.is_and(n)) continue;
    map[n] = out.create_and(xlate(aig.fanin0(n), map),
                            xlate(aig.fanin1(n), map));
  }
  for (const auto& [lit, name] : new_pos) {
    out.create_po(xlate(lit, map), name);
  }
  return out.cleaned();
}

/// Serialized materialized result — the determinism comparison key.  BLIF
/// carries the full netlist (kinds, fanins, PO wiring, names); the stage
/// vector and headline stats are appended because BLIF does not encode them.
std::string result_signature(const t1::EngineResult& result) {
  std::ostringstream os;
  io::write_blif(os, result.materialized.netlist, "sig");
  os << "|sigma";
  for (const int s : result.materialized.stages.sigma) os << ' ' << s;
  os << "|po " << result.materialized.stages.sigma_po;
  os << "|dffs " << result.stats.dffs;
  return os.str();
}

/// The per-config differential checks: the serial flow, the fault hook and
/// the CEC oracle per configuration, then the batch determinism check.
class ConfigChecker {
 public:
  explicit ConfigChecker(const FuzzOptions& options)
      : options_(options),
        serial_(t1::Pipeline::default_flow(false)),
        batch_(t1::Pipeline::default_flow(false)) {
    batch_.set_threads(options.threads);
  }

  long flows_run() const { return flows_run_; }

  /// Serial flow, fault hook, CEC oracle.  Once the flow succeeds,
  /// `signature` (when given) receives its result's signature.
  Outcome run(const Aig& aig, const Config& config,
              std::string* signature = nullptr) {
    ++flows_run_;
    t1::EngineResult serial = serial_.run(aig, config.params);
    if (!serial.ok()) {
      return {"flow", serial.diagnostics.first_error()};
    }
    T1MAP_ASSERT(serial.has_materialized);
    if (signature != nullptr) *signature = result_signature(serial);

    sfq::Netlist netlist = serial.materialized.netlist;
    if (options_.corrupt) options_.corrupt(netlist);
    const sat::CecResult cec = sat::check_equivalence(aig, netlist);
    if (cec.verdict != sat::CecResult::Verdict::kEquivalent) {
      return {"cec",
              cec.verdict == sat::CecResult::Verdict::kUnknown
                  ? "oracle verdict unknown"
                  : "netlist differs from source AIG at output " +
                        std::to_string(cec.failing_output)};
    }
    return {};
  }

  /// The determinism check: `configs` as one `run_many` batch, dealt over
  /// `threads` workers.  Result k must be bit-identical to `serial[k]`, its
  /// serial run's signature; an empty entry (the serial flow failed) is not
  /// compared.  One outcome per configuration.
  std::vector<Outcome> run_batch(const Aig& aig,
                                 const std::vector<Config>& configs,
                                 const std::vector<std::string>& serial) {
    std::vector<t1::FlowJob> jobs;
    for (const Config& config : configs) {
      jobs.push_back({&aig, config.params});
    }
    flows_run_ += static_cast<long>(jobs.size());
    const std::vector<t1::EngineResult> results = batch_.run_many(jobs);
    std::vector<Outcome> outcomes(configs.size());
    for (std::size_t k = 0; k < configs.size(); ++k) {
      if (serial[k].empty()) continue;
      if (!results[k].ok()) {
        outcomes[k] = {"determinism", "batch run failed: " +
                                          results[k].diagnostics.first_error()};
      } else if (result_signature(results[k]) != serial[k]) {
        outcomes[k] = {"determinism",
                       "1-thread and " + std::to_string(options_.threads) +
                           "-thread batch results differ"};
      }
    }
    return outcomes;
  }

  /// The warm-vs-cold bit-identity check: each one-gate mutant of `aig`
  /// must map identically on an engine whose pass memo was primed with
  /// `aig` itself (so every pass key is tried against the edit) and on a
  /// cold engine with the memo off.
  Outcome run_incremental(const Aig& aig, const Config& config,
                          std::uint64_t seed) {
    t1::FlowEngine warm{t1::Pipeline::default_flow(false)};
    t1::FlowEngine cold{t1::Pipeline::default_flow(false)};
    cold.set_incremental(false);
    ++flows_run_;
    warm.run(aig, config.params);  // prime the memo with the unedited AIG
    for (int m = 0; m < options_.mutate; ++m) {
      const Aig mutant =
          mutate_aig(aig, MutateOptions{seed + static_cast<std::uint64_t>(m),
                                        /*edits=*/1});
      flows_run_ += 2;
      const t1::EngineResult inc = warm.run(mutant, config.params);
      const t1::EngineResult ref = cold.run(mutant, config.params);
      if (inc.status != ref.status) {
        return {"incremental",
                "mutant " + std::to_string(m) + ": warm/cold status differ (" +
                    t1::flow_status_name(inc.status) + " vs " +
                    t1::flow_status_name(ref.status) + ")"};
      }
      if (inc.has_materialized != ref.has_materialized ||
          (inc.has_materialized &&
           result_signature(inc) != result_signature(ref))) {
        return {"incremental",
                "mutant " + std::to_string(m) +
                    ": incremental result differs from cold run"};
      }
    }
    return {};
  }

 private:
  const FuzzOptions& options_;
  t1::FlowEngine serial_;
  t1::FlowEngine batch_;
  long flows_run_ = 0;
};

Outcome run_roundtrip_checks(const Aig& aig) {
  const serve::Digest digest = serve::hash_aig(aig);
  for (const auto format : {io::AigerFormat::kAscii, io::AigerFormat::kBinary}) {
    const char* check =
        format == io::AigerFormat::kAscii ? "aiger_ascii" : "aiger_binary";
    std::ostringstream first;
    io::write_aiger(first, aig, format);
    Aig back;
    try {
      back = io::read_aiger_string(first.str());
    } catch (const ContractError& e) {
      return {check, std::string("re-read failed: ") + e.what()};
    }
    std::ostringstream second;
    io::write_aiger(second, back, format);
    if (first.str() != second.str()) {
      return {check, "write/read/write not byte-identical"};
    }
    if (serve::hash_aig(back) != digest) {
      return {check, "round trip changed the structural digest"};
    }
  }
  {
    std::ostringstream blif;
    io::write_blif(blif, aig);
    Aig back;
    try {
      back = io::read_blif_string(blif.str());
    } catch (const ContractError& e) {
      return {"blif", std::string("re-read failed: ") + e.what()};
    }
    if (serve::hash_aig(back) != digest) {
      return {"blif", "round trip changed the structural digest"};
    }
  }
  return {};
}

/// Oracle for minimization: does `aig` still fail with the *same* check?
using FailsSameCheck = std::function<bool(const Aig&)>;

/// Greedy minimization: drop POs one at a time, then walk each surviving
/// PO's cone toward the PIs, keeping every candidate that still fails.
/// `budget` caps oracle evaluations (each one may run full flows).
Aig minimize(Aig failing, const FailsSameCheck& still_fails, int budget) {
  const auto pos_of = [](const Aig& a) {
    std::vector<std::pair<Lit, std::string>> pos;
    for (std::uint32_t i = 0; i < a.num_pos(); ++i) {
      pos.emplace_back(a.po(i), a.po_name(i));
    }
    return pos;
  };

  // Phase 1: PO removal.
  bool improved = true;
  while (improved && failing.num_pos() > 1 && budget > 0) {
    improved = false;
    const auto pos = pos_of(failing);
    for (std::size_t k = 0; k < pos.size() && budget > 0; ++k) {
      auto kept = pos;
      kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(k));
      Aig candidate = rebuild_with_pos(failing, kept);
      --budget;
      if (still_fails(candidate)) {
        failing = std::move(candidate);
        improved = true;
        break;
      }
    }
  }

  // Phase 2: cone trimming — replace a PO by one of its driver's fanins.
  improved = true;
  while (improved && budget > 0) {
    improved = false;
    const auto pos = pos_of(failing);
    for (std::size_t k = 0; k < pos.size() && !improved; ++k) {
      const Lit po = pos[k].first;
      if (!failing.is_and(lit_node(po))) continue;
      for (const Lit fanin : {failing.fanin0(lit_node(po)),
                              failing.fanin1(lit_node(po))}) {
        if (budget <= 0) break;
        auto replaced = pos;
        replaced[k].first = lit_notif(fanin, lit_is_complemented(po));
        Aig candidate = rebuild_with_pos(failing, replaced);
        --budget;
        if (still_fails(candidate)) {
          failing = std::move(candidate);
          improved = true;
          break;
        }
      }
    }
  }
  return failing;
}

std::string dump_repro(const FuzzOptions& options, const FuzzFailure& failure) {
  try {
    std::filesystem::create_directories(options.repro_dir);
    const std::string path = options.repro_dir + "/iter" +
                             std::to_string(failure.iteration) + "_" +
                             failure.config + "_" + failure.check + ".aag";
    io::write_aiger_file(path, failure.minimized);
    return path;
  } catch (const std::exception&) {
    return "";  // a full repro is still in the report's `minimized` field
  }
}

/// The check a candidate AIG fails ("" = none): a minimization oracle.
using CheckOf = std::function<std::string(const Aig&)>;

/// Records one confirmed failure of `aig`: minimizes it while `check_of`
/// still reports the same check, dumps the repro and logs the finding.
void record_failure(const FuzzOptions& options, FuzzReport& report,
                    int iteration, const std::string& config,
                    const Outcome& outcome, const Aig& aig,
                    const CheckOf& check_of, int budget) {
  FuzzFailure failure{iteration, config, outcome.check, outcome.detail, "",
                      {}};
  failure.minimized = minimize(
      aig,
      [&](const Aig& candidate) {
        return candidate.num_pos() >= 1 &&
               check_of(candidate) == outcome.check;
      },
      budget);
  failure.repro_path = dump_repro(options, failure);
  if (options.log != nullptr) {
    *options.log << "fuzz: iteration " << iteration << " FAILED [" << config
                 << "/" << outcome.check << "] " << outcome.detail
                 << (failure.repro_path.empty()
                         ? ""
                         : " (repro: " + failure.repro_path + ")")
                 << "\n";
  }
  report.failures.push_back(std::move(failure));
}

RandomAigOptions jitter(const RandomAigOptions& base, std::uint64_t seed,
                        int iteration) {
  // Derive a per-iteration generator spec: fresh seed, sizes spread across
  // (not just at) the configured bounds so one run covers many shapes.
  Rng rng(seed ^ (0x9E3779B97F4A7C15ull * (iteration + 1)));
  RandomAigOptions aig = base;
  aig.seed = rng.next();
  aig.num_pis = 2 + static_cast<std::uint32_t>(
                        rng.below(std::max<std::uint32_t>(1, base.num_pis)));
  aig.num_pos = 1 + static_cast<std::uint32_t>(
                        rng.below(std::max<std::uint32_t>(1, base.num_pos)));
  aig.num_ops = 5 + static_cast<std::uint32_t>(
                        rng.below(std::max<std::uint32_t>(1, base.num_ops)));
  aig.depth_bias = rng.uniform();
  return aig;
}

}  // namespace

FuzzReport run_fuzz(const FuzzOptions& options) {
  T1MAP_REQUIRE(options.iterations >= 1, "--fuzz needs at least 1 iteration");
  const auto start = std::chrono::steady_clock::now();

  FuzzReport report;
  const std::vector<Config> configs = make_configs(options);
  ConfigChecker checker(options);

  for (int iter = 0; iter < options.iterations; ++iter) {
    const RandomAigOptions aig_options =
        jitter(options.aig, options.seed, iter);
    const Aig aig = random_aig(aig_options);

    // Format round trips (flow-independent).
    if (Outcome outcome = run_roundtrip_checks(aig); outcome.failed()) {
      record_failure(
          options, report, iter, "roundtrip", outcome, aig,
          [](const Aig& candidate) {
            return run_roundtrip_checks(candidate).check;
          },
          /*budget=*/256);
      continue;  // flow checks on a non-round-tripping AIG add no signal
    }

    std::vector<std::string> signatures(configs.size());
    for (std::size_t k = 0; k < configs.size(); ++k) {
      const Config& config = configs[k];
      const Outcome outcome = checker.run(aig, config, &signatures[k]);
      if (!outcome.failed()) continue;
      record_failure(
          options, report, iter, config.key, outcome, aig,
          [&](const Aig& candidate) {
            return checker.run(candidate, config).check;
          },
          /*budget=*/48);
    }

    if (options.threads > 1) {
      const std::vector<Outcome> outcomes =
          checker.run_batch(aig, configs, signatures);
      for (std::size_t k = 0; k < configs.size(); ++k) {
        if (!outcomes[k].failed()) continue;
        record_failure(
            options, report, iter, configs[k].key, outcomes[k], aig,
            [&](const Aig& candidate) {
              std::vector<std::string> serial(configs.size());
              checker.run(candidate, configs[k], &serial[k]);
              return checker.run_batch(candidate, configs, serial)[k].check;
            },
            /*budget=*/48);
      }
    }

    if (options.mutate > 0) {
      for (const Config& config : configs) {
        const std::uint64_t mutate_seed =
            options.seed ^ (0xD1B54A32D192ED03ull * (iter * 31 + 1));
        Outcome outcome = checker.run_incremental(aig, config, mutate_seed);
        if (!outcome.failed()) continue;
        record_failure(
            options, report, iter, config.key, outcome, aig,
            [&](const Aig& candidate) {
              return checker.run_incremental(candidate, config, mutate_seed)
                  .check;
            },
            /*budget=*/24);
      }
    }

    if (options.log != nullptr && (iter + 1) % 50 == 0) {
      *options.log << "fuzz: " << (iter + 1) << "/" << options.iterations
                   << " iterations, " << report.failures.size()
                   << " failure(s)\n";
    }
  }

  report.iterations = options.iterations;
  report.flows_run = checker.flows_run();
  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

}  // namespace t1map::fuzz
