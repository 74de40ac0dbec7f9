// The paper's headline result: the 128-bit adder, where nearly the whole
// circuit collapses into T1 cells (127 of them — one per full-adder slice)
// and area drops ~25% versus the 4-phase baseline (Table I, row 1).
//
//   $ ./examples/adder128

#include <cstdio>

#include "common/require.hpp"
#include "gen/arith.hpp"
#include "gen/registry.hpp"
#include "t1/flow_engine.hpp"

int main() {
  using namespace t1map;

  const Aig adder = gen::ripple_adder(128);

  t1::FlowEngine engine;
  const auto run = [&](int phases, bool use_t1) {
    t1::FlowParams p;
    p.num_phases = phases;
    p.use_t1 = use_t1;
    const t1::EngineResult r = engine.run(adder, p);
    T1MAP_REQUIRE(r.ok(), r.diagnostics.first_error());
    return r.stats;
  };

  std::printf("128-bit adder (the paper's headline benchmark)\n");
  std::printf("==============================================\n");
  const auto s1 = run(1, false);
  const auto s4 = run(4, false);
  const auto st = run(4, true);

  std::printf("%-24s %10s %10s %10s\n", "", "1-phase", "4-phase",
              "4-phase+T1");
  std::printf("%-24s %10ld %10ld %10ld\n", "path-balancing DFFs", s1.dffs,
              s4.dffs, st.dffs);
  std::printf("%-24s %10ld %10ld %10ld\n", "area [JJ]", s1.area_jj,
              s4.area_jj, st.area_jj);
  std::printf("%-24s %10d %10d %10d\n", "depth [cycles]", s1.depth_cycles,
              s4.depth_cycles, st.depth_cycles);
  std::printf("%-24s %10d %10d %10d\n", "T1 cells used", 0, 0, st.t1_used);

  const auto* paper = gen::paper_row("adder");
  std::printf("\narea T1/4φ: %.2f (paper: %.2f);  T1 used: %d (paper: %d)\n",
              double(st.area_jj) / double(s4.area_jj),
              double(paper->area_t1) / double(paper->area_4p), st.t1_used,
              paper->t1_used);
  return 0;
}
