#include "cli/report.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <optional>
#include <sstream>

#include "common/require.hpp"
#include "gen/registry.hpp"
#include "serve/json_out.hpp"
#include "t1/cone_memo.hpp"

namespace t1map::cli {

namespace {

std::string nphi_key(int phases) {
  return "baseline_" + std::to_string(phases) + "phi";
}

/// Scoped hook of a cone memo onto a scratch; restores the previous hook
/// even when the flow throws.
class MemoAttach {
 public:
  MemoAttach(t1::FlowScratch& scratch, t1::ConeMemo& memo)
      : scratch_(scratch), saved_(scratch.memo) {
    scratch_.memo = &memo;
  }
  ~MemoAttach() { scratch_.memo = saved_; }
  MemoAttach(const MemoAttach&) = delete;
  MemoAttach& operator=(const MemoAttach&) = delete;

 private:
  t1::FlowScratch& scratch_;
  t1::ConeMemo* saved_;
};

/// One configuration through the shared pipeline; throws ContractError when
/// a check pass failed so the driver exits non-zero exactly as the
/// monolithic flow did.  With `prime`, that design is mapped first (untimed)
/// to warm a cone memo that the measured run then splices from.
ConfigResult run_one_config(const t1::Pipeline& pipeline, const Aig& aig,
                            const std::string& key, const Options& opts,
                            t1::FlowScratch& scratch, const Aig* prime) {
  ConfigResult result;
  result.key = key;
  result.params = config_params(key, opts);

  t1::ConeMemo memo;
  std::optional<MemoAttach> attach;
  if (prime != nullptr) {
    attach.emplace(scratch, memo);
    (void)t1::FlowEngine::run_with(pipeline, *prime, result.params, scratch);
  }

  const auto start = std::chrono::steady_clock::now();
  result.flow =
      t1::FlowEngine::run_with(pipeline, aig, result.params, scratch);
  const auto end = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(end - start).count();
  result.cec = result.flow.cec;
  T1MAP_REQUIRE(result.flow.ok(),
                "config " + key + " failed: " +
                    result.flow.diagnostics.first_error());
  return result;
}

}  // namespace

std::vector<std::string> selected_configs(const Options& opts) {
  std::vector<std::string> keys;
  const bool all = opts.config == "all";
  if (all || opts.config == "1phi") keys.push_back("baseline_1phi");
  if ((all && opts.phases != 1) || opts.config == "nphi") {
    keys.push_back(nphi_key(opts.phases));
  }
  if (all || opts.config == "t1") keys.push_back("t1");
  return keys;
}

t1::Pipeline build_pipeline(const Options& opts) {
  if (!opts.passes.empty()) return t1::Pipeline::parse(opts.passes);
  if (opts.skip_checks) return t1::Pipeline::parse("map,t1,stage,dff");
  return t1::Pipeline::default_flow(/*with_cec=*/opts.run_cec);
}

t1::FlowParams config_params(const std::string& key, const Options& opts) {
  t1::FlowParams params;
  params.verify_rounds = opts.verify_rounds;
  if (key == "baseline_1phi") {
    params.num_phases = 1;
    params.use_t1 = false;
  } else if (key == "t1") {
    params.num_phases = opts.phases;
    params.use_t1 = true;
  } else {
    T1MAP_REQUIRE(key == nphi_key(opts.phases),
                  "config_params: unknown configuration key " + key);
    params.num_phases = opts.phases;
    params.use_t1 = false;
  }
  return params;
}

std::vector<ConfigResult> run_configs(const Aig& aig,
                                      const std::vector<std::string>& keys,
                                      const Options& opts,
                                      const Aig* prime) {
  const t1::Pipeline pipeline = build_pipeline(opts);
  std::vector<ConfigResult> results(keys.size());

  const bool parallel = opts.threads > 1 && keys.size() > 1;
  if (!opts.json) {
    if (parallel) {
      std::cerr << "t1map: running " << keys.size() << " configurations on "
                << std::min<int>(opts.threads,
                                 static_cast<int>(keys.size()))
                << " threads ..." << std::endl;
    } else {
      for (const std::string& key : keys) {
        std::cerr << "t1map: running " << key << " ..." << std::endl;
      }
    }
  }
  // Configurations first, surplus threads into the passes of each.
  const int outer =
      std::clamp(opts.threads, 1, static_cast<int>(keys.size()));
  const int intra = std::max(1, opts.threads / outer);
  t1::for_each_with_scratch(
      keys.size(), opts.threads,
      [&](std::size_t i, t1::FlowScratch& scratch) {
        results[i] =
            run_one_config(pipeline, aig, keys[i], opts, scratch, prime);
      },
      intra);
  return results;
}

const ConfigResult* find_config(const Report& report,
                                const std::string& key) {
  for (const ConfigResult& c : report.configs) {
    if (c.key == key) return &c;
  }
  return nullptr;
}

io::Json report_json(const Report& report) {
  io::Json root = io::Json::object();
  root.set("design", report.design);
  root.set("source", report.source);

  root.set("input", serve::input_json(report.num_pis, report.num_pos,
                                      report.num_ands, report.depth));
  root.set("phases", report.phases);

  io::Json configs = io::Json::object();
  for (const ConfigResult& c : report.configs) {
    io::Json j = io::Json::object();
    j.set("phases", c.params.num_phases);
    j.set("use_t1", c.params.use_t1);
    // The Table-I block comes from the shared emitter (one field-name
    // authority across report/bench/serve), flattened into the config
    // object to keep the long-standing report schema.
    const io::Json stats = serve::flow_stats_json(c.flow.stats);
    for (const auto& [key, value] : stats.members()) {
      j.set(key, value);
    }
    j.set("cec", c.cec);
    j.set("seconds", c.seconds);
    if (!report.incremental_from.empty()) {
      const t1::ReuseCounters& r = c.flow.reuse;
      io::Json reuse = io::Json::object();
      reuse.set("map_cones_total", r.map_cones_total);
      reuse.set("map_cones_reused", r.map_cones_reused);
      reuse.set("t1_cones_total", r.t1_cones_total);
      reuse.set("t1_cones_reused", r.t1_cones_reused);
      reuse.set("t1_exact", r.t1_exact);
      reuse.set("stage_spliced", r.stage_spliced);
      j.set("reuse", std::move(reuse));
    }
    configs.set(c.key, std::move(j));
  }
  root.set("configs", std::move(configs));
  if (!report.incremental_from.empty()) {
    root.set("incremental_from", report.incremental_from);
  }

  if (const gen::PaperRow* row = gen::paper_row(report.design)) {
    io::Json paper = io::Json::object();
    paper.set("t1_found", row->t1_found);
    paper.set("t1_used", row->t1_used);
    io::Json dff = io::Json::object();
    dff.set("1phi", row->dff_1p);
    dff.set("4phi", row->dff_4p);
    dff.set("t1", row->dff_t1);
    paper.set("dffs", std::move(dff));
    io::Json area = io::Json::object();
    area.set("1phi", row->area_1p);
    area.set("4phi", row->area_4p);
    area.set("t1", row->area_t1);
    paper.set("jj_total", std::move(area));
    io::Json depth = io::Json::object();
    depth.set("1phi", row->depth_1p);
    depth.set("4phi", row->depth_4p);
    depth.set("t1", row->depth_t1);
    paper.set("depth_cycles", std::move(depth));
    root.set("paper_table1", std::move(paper));
  }
  return root;
}

std::string report_text(const Report& report, bool with_paper) {
  std::ostringstream os;
  char line[256];

  std::snprintf(line, sizeof(line),
                "%s (%s): %u PIs, %u POs, %u AND nodes, depth %d\n\n",
                report.design.c_str(), report.source.c_str(), report.num_pis,
                report.num_pos, report.num_ands, report.depth);
  os << line;

  std::snprintf(line, sizeof(line),
                "%-16s %6s %8s %8s %9s %9s %6s %6s %12s %8s\n", "config",
                "phases", "T1 used", "logic", "splitters", "DFFs", "JJs",
                "depth", "CEC", "time");
  os << line;
  for (const ConfigResult& c : report.configs) {
    const t1::FlowStats& s = c.flow.stats;
    std::snprintf(line, sizeof(line),
                  "%-16s %6d %8d %8ld %9ld %9ld %6ld %6d %12s %7.2fs\n",
                  c.key.c_str(), c.params.num_phases, s.t1_used,
                  s.logic_cells, s.splitters, s.dffs, s.area_jj,
                  s.depth_cycles, c.cec.c_str(), c.seconds);
    os << line;
  }

  if (!report.incremental_from.empty()) {
    std::snprintf(line, sizeof(line), "\nincremental (primed from %s):\n",
                  report.incremental_from.c_str());
    os << line;
    for (const ConfigResult& c : report.configs) {
      const t1::ReuseCounters& r = c.flow.reuse;
      std::snprintf(line, sizeof(line),
                    "%-16s map %u/%u cones reused, t1 %u/%u%s, stage %s\n",
                    c.key.c_str(), r.map_cones_reused, r.map_cones_total,
                    r.t1_cones_reused, r.t1_cones_total,
                    r.t1_exact ? " (exact)" : "",
                    r.stage_spliced ? "reused" : "recomputed");
      os << line;
    }
  }

  const ConfigResult* t1c = find_config(report, "t1");
  const ConfigResult* base = nullptr;
  for (const ConfigResult& c : report.configs) {
    if (c.key != "t1" && c.key != "baseline_1phi") base = &c;
  }
  if (t1c != nullptr && base != nullptr && base->flow.stats.area_jj > 0) {
    const double jj_ratio = static_cast<double>(t1c->flow.stats.area_jj) /
                            static_cast<double>(base->flow.stats.area_jj);
    const double dff_ratio =
        base->flow.stats.dffs > 0
            ? static_cast<double>(t1c->flow.stats.dffs) /
                  static_cast<double>(base->flow.stats.dffs)
            : 1.0;
    std::snprintf(line, sizeof(line),
                  "\nT1 vs %s: JJ ratio %.3f, DFF ratio %.3f\n",
                  base->key.c_str(), jj_ratio, dff_ratio);
    os << line;
  }

  if (with_paper) {
    if (const gen::PaperRow* row = gen::paper_row(report.design)) {
      os << "\npublished Table I row (1phi / 4phi / T1):\n";
      std::snprintf(line, sizeof(line),
                    "  DFFs  %8ld %8ld %8ld\n  JJs   %8ld %8ld %8ld\n"
                    "  depth %8d %8d %8d\n  T1 found/used: %d/%d\n",
                    row->dff_1p, row->dff_4p, row->dff_t1, row->area_1p,
                    row->area_4p, row->area_t1, row->depth_1p, row->depth_4p,
                    row->depth_t1, row->t1_found, row->t1_used);
      os << line;
    } else {
      os << "\n(no published Table I row for this design)\n";
    }
  }
  return os.str();
}

}  // namespace t1map::cli
