// Shared helpers for the serving-layer suites (test_serve and
// test_disk_cache): equality of the result fields a cache entry keeps,
// and cache-key derivation.

#pragma once

#include <gtest/gtest.h>

#include <string>

#include "serve/aig_hash.hpp"
#include "serve/flow_cache.hpp"
#include "t1/flow_engine.hpp"

namespace t1map::testutil {

/// Compares what a serve cache entry keeps of a result: the status, the
/// CEC verdict and every `FlowStats` field.
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
  EXPECT_EQ(a.stats.t1_cores, b.stats.t1_cores) << label;
}

/// The key the server gives a job on `aig` under `params` without CEC.
inline serve::RunKey key_of(const Aig& aig, const t1::FlowParams& params) {
  return serve::run_key(serve::hash_aig(aig),
                        serve::config_fingerprint(params, /*with_cec=*/false));
}

}  // namespace t1map::testutil
