// Golden regression of the full mapping flow: Table-I statistics (JJ area,
// #DFF, depth, stage count, cell counts, T1 matches) captured from the seed
// implementation must stay bit-for-bit identical across performance rewrites
// of the substrate (flat-memory cut enumeration, arena SAT solver, stage
// assignment pruning).  Any intentional quality change must update this
// table and say why in the commit.  Every row runs on a fresh engine, so
// this suite covers cold runs on fresh scratch; test_flow_engine runs the
// same rows through one engine.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/registry.hpp"
#include "golden_flow.hpp"
#include "t1/flow_engine.hpp"

namespace t1map {
namespace {

TEST(FlowRegression, StatsMatchSeedGolden) {
  std::string last_gen;
  Aig aig;
  for (const Golden& g : golden_rows()) {
    if (g.gen != last_gen) {
      aig = gen::make_named(g.gen);
      last_gen = g.gen;
    }
    t1::FlowParams params;
    params.num_phases = g.phases;
    params.use_t1 = g.use_t1;
    params.verify_rounds = 0;  // stats only; equivalence is tested elsewhere
    t1::FlowEngine engine;
    const t1::EngineResult r = engine.run(aig, params);
    const std::string label =
        g.gen + " phases=" + std::to_string(g.phases) +
        (g.use_t1 ? " t1" : " baseline");
    ASSERT_TRUE(r.ok()) << label << ": " << r.diagnostics.to_string();
    const t1::FlowStats& s = r.stats;
    EXPECT_EQ(s.area_jj, g.jj_total) << label;
    EXPECT_EQ(s.dffs, g.dffs) << label;
    EXPECT_EQ(s.depth_cycles, g.depth_cycles) << label;
    EXPECT_EQ(s.num_stages, g.num_stages) << label;
    EXPECT_EQ(s.logic_cells, g.logic_cells) << label;
    EXPECT_EQ(s.splitters, g.splitters) << label;
    EXPECT_EQ(s.t1_found, g.t1_found) << label;
    EXPECT_EQ(s.t1_used, g.t1_used) << label;
  }
}

}  // namespace
}  // namespace t1map
