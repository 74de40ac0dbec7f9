// Property-based integration suites (parameterized gtest): flow invariants
// that must hold across benchmarks, phase counts, widths and seeds —
// equivalence, timing legality, DFF bookkeeping, monotonicity, T1 counting.

#include <gtest/gtest.h>

#include <tuple>

#include "gen/arith.hpp"
#include "gen/registry.hpp"
#include "retime/timing_check.hpp"
#include "sfq/netlist_sim.hpp"
#include "t1/flow_engine.hpp"

namespace t1map {
namespace {

// --- Every Table-I benchmark x {1, 4, 6 phases} x {T1 on/off} ------------

using FlowCase = std::tuple<std::string, int, bool>;

class FlowInvariants : public ::testing::TestWithParam<FlowCase> {};

TEST_P(FlowInvariants, EquivalentLegalAndConsistent) {
  const auto& [name, phases, use_t1] = GetParam();
  if (use_t1 && phases < 3) GTEST_SKIP();

  const Aig aig = gen::make_benchmark(name);
  t1::FlowParams params;
  params.num_phases = phases;
  params.use_t1 = use_t1;
  params.verify_rounds = 0;  // we verify explicitly below
  t1::FlowEngine engine;
  const t1::EngineResult r = engine.run(aig, params);
  ASSERT_TRUE(r.ok()) << r.diagnostics.to_string();

  // Functional equivalence (random + structured patterns).
  EXPECT_TRUE(sfq::random_equivalent(aig, r.materialized.netlist, 4))
      << name;

  // Independent timing validation.
  const auto timing =
      retime::check_timing(r.materialized.netlist, r.materialized.stages);
  EXPECT_TRUE(timing.ok) << name << ": "
                         << (timing.violations.empty()
                                 ? ""
                                 : timing.violations[0]);

  // Bookkeeping: explicit DFFs match the closed-form count; area is the
  // materialized netlist's own accounting; depth = ceil(stages / phases).
  EXPECT_EQ(r.stats.dffs,
            static_cast<long>(
                r.materialized.netlist.count_kind(sfq::CellKind::kDff)));
  EXPECT_EQ(r.stats.area_jj, r.materialized.netlist.cell_area_jj_total());
  EXPECT_EQ(r.stats.depth_cycles,
            retime::ceil_div(r.stats.num_stages, phases));
  EXPECT_GE(r.stats.t1_found, r.stats.t1_used);
  if (!use_t1) {
    EXPECT_EQ(r.stats.t1_cores, 0);
  }
}

std::string flow_case_name(const ::testing::TestParamInfo<FlowCase>& info) {
  return std::get<0>(info.param) + "_" +
         std::to_string(std::get<1>(info.param)) + "p" +
         (std::get<2>(info.param) ? "_t1" : "_base");
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, FlowInvariants,
    ::testing::Combine(::testing::Values("adder", "c7552", "c6288", "voter",
                                         "square"),
                       ::testing::Values(1, 4, 6),
                       ::testing::Values(false, true)),
    flow_case_name);

// --- Adder width sweep: structural T1 counting --------------------------

class AdderT1Count : public ::testing::TestWithParam<int> {};

TEST_P(AdderT1Count, OneT1PerFullAdderSlice) {
  const int width = GetParam();
  const Aig aig = gen::ripple_adder(width);
  t1::FlowParams params;
  params.num_phases = 4;
  t1::FlowEngine engine;
  const t1::EngineResult r = engine.run(aig, params);
  ASSERT_TRUE(r.ok()) << r.diagnostics.to_string();
  // Bit 0 is a half adder; every other slice is one T1.
  EXPECT_EQ(r.stats.t1_used, width - 1);
  EXPECT_EQ(r.stats.t1_cores, width - 1);
}

INSTANTIATE_TEST_SUITE_P(Widths, AdderT1Count,
                         ::testing::Values(4, 8, 16, 32, 64));

// --- Phase monotonicity on the baseline flow ----------------------------

class PhaseMonotonicity : public ::testing::TestWithParam<std::string> {};

TEST_P(PhaseMonotonicity, MorePhasesNeverHurtDffs) {
  const Aig aig = gen::make_benchmark(GetParam());
  t1::FlowEngine engine;
  long prev = -1;
  for (const int phases : {1, 2, 3, 4, 6, 8}) {
    t1::FlowParams params;
    params.num_phases = phases;
    params.use_t1 = false;
    params.verify_rounds = 0;
    const t1::EngineResult r = engine.run(aig, params);
    ASSERT_TRUE(r.ok()) << r.diagnostics.to_string();
    const t1::FlowStats& s = r.stats;
    if (prev >= 0) {
      EXPECT_LE(s.dffs, prev) << GetParam() << " at " << phases;
    }
    prev = s.dffs;
  }
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, PhaseMonotonicity,
                         ::testing::Values("adder", "c7552", "c6288"));

// --- T1 gain accounting is conservative ---------------------------------

class GainAccounting : public ::testing::TestWithParam<std::string> {};

TEST_P(GainAccounting, RealizedAreaDeltaCoversClaimedGain) {
  const Aig aig = gen::make_benchmark(GetParam());
  const sfq::Netlist mapped = sfq::map_to_sfq(aig);
  const auto det = t1::detect_t1(mapped);
  if (det.accepted.empty()) GTEST_SKIP();

  long claimed = 0;
  for (const auto& cand : det.accepted) {
    EXPECT_GT(cand.gain, 0);
    EXPECT_GE(cand.matches.size(), 2u);
    claimed += cand.gain;
  }
  t1::RewriteStats stats;
  const sfq::Netlist rewritten =
      t1::apply_t1_rewrite(mapped, det.accepted, &stats);
  // Inverter sharing can only improve on the per-candidate estimate.
  EXPECT_GE(stats.cell_area_delta, claimed);
  EXPECT_EQ(rewritten.num_t1(),
            static_cast<std::uint32_t>(det.accepted.size()));
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, GainAccounting,
                         ::testing::Values("adder", "c7552", "c6288",
                                           "voter", "square"));

// --- Multiplier/squarer width x phase grid ------------------------------

using GridCase = std::tuple<int, int>;

class MultiplierGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(MultiplierGrid, FlowPreservesProduct) {
  const auto& [width, phases] = GetParam();
  const Aig aig = gen::array_multiplier(width);
  t1::FlowParams params;
  params.num_phases = phases;
  params.use_t1 = phases >= 3;
  params.verify_rounds = 0;
  t1::FlowEngine engine;
  const t1::EngineResult r = engine.run(aig, params);
  ASSERT_TRUE(r.ok()) << r.diagnostics.to_string();
  EXPECT_TRUE(sfq::random_equivalent(aig, r.materialized.netlist, 8));
}

INSTANTIATE_TEST_SUITE_P(Grid, MultiplierGrid,
                         ::testing::Combine(::testing::Values(4, 6, 8),
                                            ::testing::Values(1, 4, 5)));

}  // namespace
}  // namespace t1map
