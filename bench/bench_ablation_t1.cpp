// Ablation A2: sensitivity of the detection stage —
// the ΔA acceptance threshold of eq. (2) and the input-negation matching
// dimension.  Shows how candidate count, realized area and DFFs respond.

#include <cstdio>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "gen/registry.hpp"
#include "t1/flow_engine.hpp"

int main() {
  using namespace t1map;
  const std::vector<std::string> circuits = {"adder", "multiplier", "sin"};
  t1::FlowEngine engine;
  // A failed check pass stops the program, naming the pass's reason.
  const auto stats_of = [&](const Aig& aig, const t1::FlowParams& params) {
    const t1::EngineResult r = engine.run(aig, params);
    T1MAP_REQUIRE(r.ok(), r.diagnostics.first_error());
    return r.stats;
  };

  std::printf("Ablation: T1 detection parameters\n");
  std::printf("=================================\n");

  for (const std::string& name : circuits) {
    const Aig aig = gen::make_benchmark(name);
    std::printf("\n%s — ΔA acceptance threshold (eq. 2)\n", name.c_str());
    std::printf("  min_gain | %5s %5s | %9s %9s %6s\n", "found", "used",
                "DFFs", "area", "depth");
    for (const long threshold : {1l, 10l, 20l, 40l, 80l}) {
      t1::FlowParams p = t1::table_params(t1::TableConfig::kT1, 4);
      p.verify_rounds = 1;
      p.detect.min_gain = threshold;
      const t1::FlowStats s = stats_of(aig, p);
      std::printf("  %8ld | %5d %5d | %9ld %9ld %6d\n", threshold,
                  s.t1_found, s.t1_used, s.dffs, s.area_jj, s.depth_cycles);
    }

    std::printf("%s — input negation matching\n", name.c_str());
    std::printf("  negation | %5s %5s | %9s %9s\n", "found", "used", "DFFs",
                "area");
    for (const bool allow : {false, true}) {
      t1::FlowParams p = t1::table_params(t1::TableConfig::kT1, 4);
      p.verify_rounds = 1;
      p.detect.allow_input_negation = allow;
      const t1::FlowStats s = stats_of(aig, p);
      std::printf("  %8s | %5d %5d | %9ld %9ld\n", allow ? "on" : "off",
                  s.t1_found, s.t1_used, s.dffs, s.area_jj);
    }
  }
  return 0;
}
