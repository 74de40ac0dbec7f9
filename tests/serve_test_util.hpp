// Shared helpers for the serving-layer suites (test_serve,
// test_disk_cache, test_transport): canonical netlist comparison, deep
// result equality, and cache-key derivation.

#pragma once

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "io/blif.hpp"
#include "serve/aig_hash.hpp"
#include "serve/flow_cache.hpp"
#include "t1/flow_engine.hpp"

namespace t1map::testutil {

/// Byte-exact netlist comparison via the canonical BLIF rendering.
inline std::string blif_of(const sfq::Netlist& ntk, const std::string& name) {
  std::ostringstream os;
  io::write_blif(os, ntk, name);
  return os.str();
}

inline void expect_results_identical(const t1::EngineResult& a,
                                     const t1::EngineResult& b,
                                     const std::string& label) {
  EXPECT_EQ(a.status, b.status) << label;
  EXPECT_EQ(a.cec, b.cec) << label;
  EXPECT_EQ(a.stats.area_jj, b.stats.area_jj) << label;
  EXPECT_EQ(a.stats.dffs, b.stats.dffs) << label;
  EXPECT_EQ(a.stats.depth_cycles, b.stats.depth_cycles) << label;
  EXPECT_EQ(a.stats.num_stages, b.stats.num_stages) << label;
  EXPECT_EQ(a.stats.logic_cells, b.stats.logic_cells) << label;
  EXPECT_EQ(a.stats.splitters, b.stats.splitters) << label;
  EXPECT_EQ(a.stats.t1_found, b.stats.t1_found) << label;
  EXPECT_EQ(a.stats.t1_used, b.stats.t1_used) << label;
  ASSERT_EQ(a.has_materialized, b.has_materialized) << label;
  EXPECT_EQ(blif_of(a.mapped, "mapped"), blif_of(b.mapped, "mapped"))
      << label;
  if (a.has_materialized) {
    EXPECT_EQ(blif_of(a.materialized.netlist, "mat"),
              blif_of(b.materialized.netlist, "mat"))
        << label;
    EXPECT_EQ(a.materialized.stages.sigma, b.materialized.stages.sigma)
        << label;
  }
}

/// The key the server gives a job on `aig` under `params` without CEC.
inline serve::RunKey key_of(const Aig& aig, const t1::FlowParams& params) {
  return serve::run_key(serve::hash_aig(aig),
                        serve::config_fingerprint(params, /*with_cec=*/false));
}

}  // namespace t1map::testutil
