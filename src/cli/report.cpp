#include "cli/report.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "common/require.hpp"
#include "gen/registry.hpp"
#include "serve/json_out.hpp"

namespace t1map::cli {

std::vector<t1::TableConfig> selected_configs(const Options& opts) {
  using t1::TableConfig;
  if (opts.config == "1phi") return {TableConfig::k1phi};
  if (opts.config == "nphi") return {TableConfig::kNphi};
  if (opts.config == "t1") return {TableConfig::kT1};
  return {TableConfig::k1phi, TableConfig::kNphi, TableConfig::kT1};
}

std::vector<ConfigResult> run_configs(
    const Aig& aig, const std::vector<t1::TableConfig>& configs,
    const Options& opts, const Aig* prime) {
  std::vector<ConfigResult> results(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    results[i].config = configs[i];
    results[i].key = t1::config_key(configs[i], opts.phases);
    results[i].params = t1::table_params(configs[i], opts.phases);
    results[i].params.verify_rounds = opts.verify_rounds;
  }

  const t1::Pipeline pipeline = t1::Pipeline::default_flow(opts.run_cec);
  const bool parallel =
      prime == nullptr && opts.threads > 1 && results.size() > 1;
  if (!opts.json) {
    if (parallel) {
      std::cerr << "t1map: running " << results.size()
                << " configurations on "
                << std::min<int>(opts.threads,
                                 static_cast<int>(results.size()))
                << " threads ..." << std::endl;
    } else {
      for (const ConfigResult& c : results) {
        std::cerr << "t1map: running " << c.key << " ..." << std::endl;
      }
    }
  }
  if (prime == nullptr) {
    // One cold batch, one configuration per worker.
    t1::FlowEngine engine(pipeline);
    engine.set_incremental(false);
    engine.set_threads(opts.threads);
    std::vector<t1::FlowJob> jobs;
    for (const ConfigResult& c : results) jobs.push_back({&aig, c.params});
    std::vector<t1::EngineResult> flows = engine.run_many(jobs);
    for (std::size_t i = 0; i < results.size(); ++i) {
      results[i].flow = std::move(flows[i]);
    }
  } else {
    // Each configuration primes a fresh pass memo with `prime` (untimed),
    // then maps `aig` on the same worker, reusing each pass whose input and
    // parameters match the primed run's.  `run` always uses worker 0, so
    // the engine needs no other.
    for (ConfigResult& c : results) {
      t1::FlowEngine engine(pipeline);
      (void)engine.run(*prime, c.params);
      c.flow = engine.run(aig, c.params);
    }
  }
  // A failed check makes t1map exit non-zero.
  for (const ConfigResult& c : results) {
    T1MAP_REQUIRE(c.flow.ok(), "config " + c.key + " failed: " +
                                   c.flow.diagnostics.first_error());
  }
  return results;
}

const ConfigResult* find_config(const Report& report,
                                t1::TableConfig config) {
  for (const ConfigResult& c : report.configs) {
    if (c.config == config) return &c;
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
    j.set("cec", c.flow.cec);
    j.set("seconds", c.flow.times.total_wall);
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
                  s.depth_cycles, c.flow.cec.c_str(),
                  c.flow.times.total_wall);
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

  const ConfigResult* t1c = find_config(report, t1::TableConfig::kT1);
  const ConfigResult* base = find_config(report, t1::TableConfig::kNphi);
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
