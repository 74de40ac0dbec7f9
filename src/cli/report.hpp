/// \file report.hpp
/// \brief Running Table-I configurations and rendering the stats report
/// (text and JSON) for the `t1map` CLI.

#pragma once

#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "cli/options.hpp"
#include "io/json.hpp"
#include "t1/flow_engine.hpp"

namespace t1map::cli {

/// One executed flow configuration.
struct ConfigResult {
  t1::TableConfig config;
  std::string key;  // t1::config_key: "baseline_1phi", ... or "t1"
  t1::FlowParams params;
  t1::EngineResult flow;
};

/// The full run: input summary plus every executed configuration.
struct Report {
  std::string design;  // benchmark / model name
  std::string source;  // "gen:<name>" or "blif:<path>"
  std::uint32_t num_pis = 0;
  std::uint32_t num_pos = 0;
  std::uint32_t num_ands = 0;
  int depth = 0;
  int phases = 4;  // the n of nphi / t1
  /// Non-empty when the engine was primed via --incremental-from: the
  /// priming source, and a per-config reuse section in both renderings.
  std::string incremental_from;
  std::vector<ConfigResult> configs;
};

/// Expands `--config` into the configurations to run, in canonical order
/// (1phi, nphi, t1).  `all` has at least 3 phases, so its two baselines
/// differ.
std::vector<t1::TableConfig> selected_configs(const Options& opts);

/// Runs every configuration in `configs` on `aig` through the default
/// flow, with SAT CEC unless `--no-cec`: one cold `FlowEngine::run_many`
/// batch (with `--threads`, configurations run in parallel; results stay
/// in `configs` order).  `prime`, when given (--incremental-from), instead
/// runs the configurations one after another on worker 0, each on a fresh
/// engine that maps `prime` first to fill its pass memo; the timed run then
/// reuses every pass whose input and parameters match, and its reuse
/// counters land in the results.  Throws ContractError if any
/// configuration's checks fail.
std::vector<ConfigResult> run_configs(
    const Aig& aig, const std::vector<t1::TableConfig>& configs,
    const Options& opts, const Aig* prime = nullptr);

/// Machine-readable report (the `--json` output).
io::Json report_json(const Report& report);

/// Human-readable report (the default output).  When `with_paper` is set
/// and the design has a published Table-I row, it is appended.
std::string report_text(const Report& report, bool with_paper);

/// Finds a configuration's result; nullptr when it was not run.
const ConfigResult* find_config(const Report& report, t1::TableConfig config);

}  // namespace t1map::cli
