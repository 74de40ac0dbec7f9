// Reproduces Table I of the paper: for each of the eight benchmark
// circuits, runs single-phase (1φ), four-phase (4φ) and T1-aware (T1)
// flows and reports path-balancing DFFs, area in JJs and depth in cycles,
// with the same ratio columns the paper prints, next to the published
// numbers.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "gen/registry.hpp"
#include "t1/flow_engine.hpp"

namespace {

using t1map::t1::EngineResult;
using t1map::t1::FlowEngine;
using t1map::t1::FlowParams;
using t1map::t1::FlowStats;

struct Row {
  std::string name;
  FlowStats s1, s4, st;
  double seconds;
};

FlowParams config(int phases, bool use_t1) {
  FlowParams p;
  p.num_phases = phases;
  p.use_t1 = use_t1;
  p.verify_rounds = 2;  // equivalence self-check on every flow run
  return p;
}

}  // namespace

int main() {
  FlowEngine engine;
  // A failed check pass stops the program, naming the pass's reason.
  const auto stats_of = [&](const t1map::Aig& aig, const FlowParams& params) {
    const EngineResult r = engine.run(aig, params);
    T1MAP_REQUIRE(r.ok(), r.diagnostics.first_error());
    return r.stats;
  };

  std::vector<Row> rows;
  for (const std::string& name : t1map::gen::table1_names()) {
    const auto start = std::chrono::steady_clock::now();
    const t1map::Aig aig = t1map::gen::make_benchmark(name);
    Row row;
    row.name = name;
    row.s1 = stats_of(aig, config(1, false));
    row.s4 = stats_of(aig, config(4, false));
    row.st = stats_of(aig, config(4, true));
    row.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    rows.push_back(std::move(row));
    std::fprintf(stderr, "[table1] %s done (%.1fs)\n", name.c_str(),
                 rows.back().seconds);
  }

  std::printf(
      "Table I reproduction: multiphase clocking with T1 cells "
      "(this repository)\n"
      "================================================================"
      "============================================\n");
  std::printf(
      "%-11s | %5s %5s | %7s %7s %7s %5s %5s | %8s %8s %8s %5s %5s | "
      "%4s %4s %4s %5s %5s\n",
      "benchmark", "found", "used", "DFF 1p", "DFF 4p", "DFF T1", "/1p",
      "/4p", "area 1p", "area 4p", "area T1", "/1p", "/4p", "d1p", "d4p",
      "dT1", "/1p", "/4p");

  double sum_dff_r1 = 0, sum_dff_r4 = 0, sum_area_r1 = 0, sum_area_r4 = 0;
  double sum_dep_r1 = 0, sum_dep_r4 = 0;
  for (const Row& r : rows) {
    const double dff_r1 = double(r.st.dffs) / double(r.s1.dffs);
    const double dff_r4 = double(r.st.dffs) / double(r.s4.dffs);
    const double area_r1 = double(r.st.area_jj) / double(r.s1.area_jj);
    const double area_r4 = double(r.st.area_jj) / double(r.s4.area_jj);
    const double dep_r1 =
        double(r.st.depth_cycles) / double(r.s1.depth_cycles);
    const double dep_r4 =
        double(r.st.depth_cycles) / double(r.s4.depth_cycles);
    sum_dff_r1 += dff_r1;
    sum_dff_r4 += dff_r4;
    sum_area_r1 += area_r1;
    sum_area_r4 += area_r4;
    sum_dep_r1 += dep_r1;
    sum_dep_r4 += dep_r4;
    std::printf(
        "%-11s | %5d %5d | %7ld %7ld %7ld %5.2f %5.2f | %8ld %8ld %8ld "
        "%5.2f %5.2f | %4d %4d %4d %5.2f %5.2f\n",
        r.name.c_str(), r.st.t1_found, r.st.t1_used, r.s1.dffs, r.s4.dffs,
        r.st.dffs, dff_r1, dff_r4, r.s1.area_jj, r.s4.area_jj, r.st.area_jj,
        area_r1, area_r4, r.s1.depth_cycles, r.s4.depth_cycles,
        r.st.depth_cycles, dep_r1, dep_r4);
  }
  const double n = static_cast<double>(rows.size());
  std::printf(
      "%-11s | %5s %5s | %7s %7s %7s %5.2f %5.2f | %8s %8s %8s %5.2f %5.2f "
      "| %4s %4s %4s %5.2f %5.2f\n",
      "Average", "", "", "", "", "", sum_dff_r1 / n, sum_dff_r4 / n, "", "",
      "", sum_area_r1 / n, sum_area_r4 / n, "", "", "", sum_dep_r1 / n,
      sum_dep_r4 / n);

  std::printf(
      "\nPublished Table I (paper), for side-by-side comparison\n"
      "---------------------------------------------------------------"
      "---------------------------------------------\n");
  std::printf("%-11s | %5s %5s | %7s %7s %7s | %8s %8s %8s | %4s %4s %4s\n",
              "benchmark", "found", "used", "DFF 1p", "DFF 4p", "DFF T1",
              "area 1p", "area 4p", "area T1", "d1p", "d4p", "dT1");
  for (const auto& p : t1map::gen::paper_table1()) {
    std::printf(
        "%-11s | %5d %5d | %7ld %7ld %7ld | %8ld %8ld %8ld | %4d %4d %4d\n",
        p.name.c_str(), p.t1_found, p.t1_used, p.dff_1p, p.dff_4p, p.dff_t1,
        p.area_1p, p.area_4p, p.area_t1, p.depth_1p, p.depth_4p, p.depth_t1);
  }
  std::printf(
      "\nNotes: circuits are structural equivalents generated at the sizes\n"
      "chosen in gen/registry.cpp (the 128-bit adder matches the paper\n"
      "exactly); compare ratios and trends, not absolute counts.\n");
  return 0;
}
