// Ablation A1: sweep the phase count n = 1..8 for the
// baseline and (n >= 3) T1 flows on three representative circuits.  Shows
// where the multiphase DFF savings saturate and how the T1 advantage
// depends on n — context for the paper's choice of 4 phases.

#include <cstdio>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "gen/registry.hpp"
#include "t1/flow_engine.hpp"

int main() {
  using namespace t1map;
  const std::vector<std::string> circuits = {"adder", "c6288", "square"};
  t1::FlowEngine engine;
  // A failed check pass stops the program, naming the pass's reason.
  const auto stats_of = [&](const Aig& aig, const t1::FlowParams& params) {
    const t1::EngineResult r = engine.run(aig, params);
    T1MAP_REQUIRE(r.ok(), r.diagnostics.first_error());
    return r.stats;
  };

  std::printf("Ablation: phase count sweep (baseline vs T1 flow)\n");
  std::printf("=================================================\n");
  for (const std::string& name : circuits) {
    const Aig aig = gen::make_benchmark(name);
    std::printf("\n%s\n", name.c_str());
    std::printf("  n | %9s %9s %6s | %9s %9s %6s %5s\n", "DFF base",
                "area base", "depth", "DFF T1", "area T1", "depth", "used");
    for (int n = 1; n <= 8; ++n) {
      t1::FlowParams base;
      base.num_phases = n;
      base.use_t1 = false;
      base.verify_rounds = 1;
      const t1::FlowStats rb = stats_of(aig, base);

      if (n >= 3) {
        t1::FlowParams with;
        with.num_phases = n;
        with.use_t1 = true;
        with.verify_rounds = 1;
        const t1::FlowStats rt = stats_of(aig, with);
        std::printf("  %d | %9ld %9ld %6d | %9ld %9ld %6d %5d\n", n, rb.dffs,
                    rb.area_jj, rb.depth_cycles, rt.dffs, rt.area_jj,
                    rt.depth_cycles, rt.t1_used);
      } else {
        std::printf("  %d | %9ld %9ld %6d | %9s %9s %6s %5s\n", n, rb.dffs,
                    rb.area_jj, rb.depth_cycles, "-", "-", "-",
                    "-");  // T1 needs >= 3 phases (input separation)
      }
    }
  }
  std::printf("\nT1 cells require n >= 3 (three distinct arrival slots in "
              "one cycle, paper eq. 3).\n");
  return 0;
}
