// Domain example: a 1001-input majority voter (EPFL `voter` equivalent).
// Its population-count compressor tree is packed with XOR3/MAJ3 pairs over
// shared leaves, which the T1 detector converts wholesale — one of the
// strongest wins in Table I.  Also demonstrates the verification tooling:
// random-simulation equivalence plus the independent timing validator.
//
//   $ ./examples/voter_majority

#include <cstdio>

#include "gen/voter.hpp"
#include "retime/timing_check.hpp"
#include "sfq/netlist_sim.hpp"
#include "t1/flow_engine.hpp"

int main() {
  using namespace t1map;

  const Aig voter = gen::majority_voter(1001);
  std::printf("1001-input majority voter: %u AND nodes, depth %d\n",
              voter.num_ands(), voter.depth());

  t1::FlowParams params;
  params.num_phases = 4;
  params.use_t1 = true;
  t1::FlowEngine engine;
  const t1::EngineResult r = engine.run(voter, params);

  params.use_t1 = false;
  const t1::EngineResult base = engine.run(voter, params);
  if (!r.ok() || !base.ok()) {
    std::fprintf(stderr, "flow failed:\n%s%s",
                 r.diagnostics.to_string().c_str(),
                 base.diagnostics.to_string().c_str());
    return 1;
  }

  std::printf("\nT1 cells: %d found, %d used\n", r.stats.t1_found,
              r.stats.t1_used);
  std::printf("area:  %ld JJ -> %ld JJ (%.1f%% saved)\n", base.stats.area_jj,
              r.stats.area_jj,
              100.0 * (base.stats.area_jj - r.stats.area_jj) /
                  base.stats.area_jj);
  std::printf("DFFs:  %ld -> %ld\n", base.stats.dffs, r.stats.dffs);
  std::printf("depth: %d -> %d cycles\n", base.stats.depth_cycles,
              r.stats.depth_cycles);

  // Re-run the safety nets explicitly (the default pipeline already did).
  const bool equivalent =
      sfq::random_equivalent(voter, r.materialized.netlist, 32);
  const auto timing =
      retime::check_timing(r.materialized.netlist, r.materialized.stages);
  std::printf("\nverification: equivalence %s, timing %s (%ld edges)\n",
              equivalent ? "OK" : "FAIL", timing.ok ? "OK" : "FAIL",
              timing.checked_edges);
  return equivalent && timing.ok ? 0 : 1;
}
