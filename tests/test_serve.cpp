// The serving layer: canonical AIG hashing (stability, sensitivity,
// collision sanity), the configuration fingerprint of the cache key, the
// sharded LRU FlowCache (bit-identical hits, byte-budget eviction,
// concurrent hammering — the TSan CI leg runs this suite), and the JSONL
// server protocol (ordering, hit counters, in-batch duplicates, error
// handling, thread-count determinism).

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/registry.hpp"
#include "golden_flow.hpp"
#include "io/aiger.hpp"
#include "io/blif.hpp"
#include "io/json.hpp"
#include "serve/aig_hash.hpp"
#include "serve/flow_cache.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"
#include "t1/flow_engine.hpp"

namespace t1map {
namespace {

using testutil::blif_of;
using testutil::expect_results_identical;
using testutil::key_of;

// --- AigHasher ---------------------------------------------------------------

TEST(AigHasher, StableAcrossRunsAndHashers) {
  const Aig a = gen::make_named("adder16");
  const Aig b = gen::make_named("adder16");
  serve::AigHasher hasher;
  const serve::Digest d1 = hasher.hash(a);
  const serve::Digest d2 = hasher.hash(a);  // same hasher, reused buffers
  const serve::Digest d3 = serve::hash_aig(b);  // fresh build, fresh hasher
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1, d3);
  EXPECT_EQ(d1.hex().size(), 32u);
}

TEST(AigHasher, InvariantUnderNodeRenumbering) {
  // The same structure built in two different creation orders: node ids
  // differ, the graph does not.
  const auto build = [](bool left_first) {
    Aig aig;
    const Lit x = aig.create_pi("x");
    const Lit y = aig.create_pi("y");
    const Lit z = aig.create_pi("z");
    Lit l, r;
    if (left_first) {
      l = aig.create_and(x, y);
      r = aig.create_and(y, lit_not(z));
    } else {
      r = aig.create_and(y, lit_not(z));
      l = aig.create_and(x, y);
    }
    aig.create_po(aig.create_and(l, r), "f");
    return aig;
  };
  EXPECT_EQ(serve::hash_aig(build(true)), serve::hash_aig(build(false)));
}

TEST(AigHasher, InvariantUnderOperandCommutation) {
  const auto build = [](bool swapped) {
    Aig aig;
    const Lit x = aig.create_pi("x");
    const Lit y = aig.create_pi("y");
    aig.create_po(swapped ? aig.create_and(lit_not(y), x)
                          : aig.create_and(x, lit_not(y)),
                  "f");
    return aig;
  };
  EXPECT_EQ(serve::hash_aig(build(false)), serve::hash_aig(build(true)));
}

TEST(AigHasher, DistinguishesInputPermutation) {
  // AND(x, !y) vs AND(y, !x): same shape, inputs exchanged.
  const auto build = [](bool permuted) {
    Aig aig;
    const Lit x = aig.create_pi("x");
    const Lit y = aig.create_pi("y");
    aig.create_po(permuted ? aig.create_and(y, lit_not(x))
                           : aig.create_and(x, lit_not(y)),
                  "f");
    return aig;
  };
  EXPECT_NE(serve::hash_aig(build(false)), serve::hash_aig(build(true)));
}

TEST(AigHasher, DistinguishesPolarity) {
  const auto build = [](bool fanin_neg, bool po_neg) {
    Aig aig;
    const Lit x = aig.create_pi("x");
    const Lit y = aig.create_pi("y");
    const Lit f = aig.create_and(fanin_neg ? lit_not(x) : x, y);
    aig.create_po(po_neg ? lit_not(f) : f, "f");
    return aig;
  };
  const serve::Digest base = serve::hash_aig(build(false, false));
  EXPECT_NE(base, serve::hash_aig(build(true, false)));   // fanin polarity
  EXPECT_NE(base, serve::hash_aig(build(false, true)));   // PO polarity
  EXPECT_NE(serve::hash_aig(build(true, false)),
            serve::hash_aig(build(false, true)));
}

TEST(AigHasher, DistinguishesPoOrder) {
  const auto build = [](bool swapped) {
    Aig aig;
    const Lit x = aig.create_pi("x");
    const Lit y = aig.create_pi("y");
    const Lit a = aig.create_and(x, y);
    const Lit o = aig.create_or(x, y);
    aig.create_po(swapped ? o : a, "p0");
    aig.create_po(swapped ? a : o, "p1");
    return aig;
  };
  EXPECT_NE(serve::hash_aig(build(false)), serve::hash_aig(build(true)));
}

TEST(AigHasher, CollisionSanityAcrossGenerators) {
  // Every bench-harness generator (small + deep sets) plus nearby sizes:
  // all digests pairwise distinct.
  const std::vector<std::string> names = {
      "adder8",  "adder16",      "adder64", "adder256", "mul8",
      "mul12",   "square12",     "voter25", "voter27",  "comparator16",
      "sin12",   "cordic32",     "log2_16",
  };
  std::set<std::string> digests;
  serve::AigHasher hasher;
  for (const std::string& name : names) {
    const Aig aig = gen::make_named(name);
    EXPECT_TRUE(digests.insert(hasher.hash(aig).hex()).second)
        << "digest collision on " << name;
  }
}

// --- config_fingerprint ------------------------------------------------------

TEST(ConfigFingerprint, SensitiveToEveryResultField) {
  const t1::FlowParams base;
  const std::uint64_t fp = serve::config_fingerprint(base, false);
  EXPECT_EQ(fp, serve::config_fingerprint(base, false));  // stable
  EXPECT_NE(fp, serve::config_fingerprint(base, /*with_cec=*/true));

  const auto differs = [fp](t1::FlowParams p) {
    return serve::config_fingerprint(p, false) != fp;
  };
  t1::FlowParams p = base;
  p.num_phases = 5;
  EXPECT_TRUE(differs(p));
  p = base;
  p.use_t1 = false;
  EXPECT_TRUE(differs(p));
  p = base;
  p.optimize_stages = false;
  EXPECT_TRUE(differs(p));
  p = base;
  p.stage_sweeps = 2;
  EXPECT_TRUE(differs(p));
  p = base;
  p.detect.min_gain = 5;
  EXPECT_TRUE(differs(p));
  p = base;
  p.detect.allow_input_negation = false;
  EXPECT_TRUE(differs(p));
  p = base;
  p.detect.cuts.k = 4;
  EXPECT_TRUE(differs(p));
  p = base;
  p.detect.cuts.max_cuts = 8;
  EXPECT_TRUE(differs(p));
  p = base;
  p.mapper.cuts.k = 2;
  EXPECT_TRUE(differs(p));
  p = base;
  p.mapper.cuts.max_cuts = 8;
  EXPECT_TRUE(differs(p));
  p = base;
  p.verify_rounds = 3;
  EXPECT_TRUE(differs(p));
  p = base;
  p.cec_conflict_limit = 1000;
  EXPECT_TRUE(differs(p));
}

// --- FlowCache ---------------------------------------------------------------

TEST(FlowCache, HitIsBitIdenticalToColdRun) {
  // Golden circuits through a cold engine and back out of the cache: the
  // hit must reproduce the cold result exactly (and the golden stats).
  serve::FlowCache cache;
  t1::FlowEngine engine;
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
    params.verify_rounds = 0;
    const serve::RunKey key = key_of(aig, params);
    const std::string label = g.gen + "/" + std::to_string(g.phases) +
                              (g.use_t1 ? "/t1" : "/base");

    const t1::EngineResult cold = engine.run(aig, params);
    ASSERT_TRUE(cold.ok()) << label;
    EXPECT_EQ(cold.stats.area_jj, g.jj_total) << label;

    t1::EngineResult warm;
    ASSERT_FALSE(cache.lookup(key, warm)) << label;
    cache.store(key, cold);
    ASSERT_TRUE(cache.lookup(key, warm)) << label;
    expect_results_identical(cold, warm, label);
    // Cached results carry no flow time.
    EXPECT_EQ(warm.times.map, 0.0) << label;
    EXPECT_EQ(warm.times.cec, 0.0) << label;
  }
  const serve::CacheStats c = cache.stats();
  EXPECT_EQ(c.insertions, golden_rows().size());
  EXPECT_EQ(c.hits, golden_rows().size());
  EXPECT_EQ(c.misses, golden_rows().size());
  EXPECT_EQ(c.evictions, 0u);
}

TEST(FlowCache, EvictsLruUnderByteBudget) {
  t1::FlowEngine engine;
  t1::FlowParams params;
  params.verify_rounds = 0;

  const std::vector<std::string> names = {"adder8", "adder12", "adder16"};
  std::vector<Aig> aigs;
  std::vector<serve::RunKey> keys;
  std::vector<t1::EngineResult> results;
  std::size_t total_bytes = 0;
  for (const std::string& name : names) {
    aigs.push_back(gen::make_named(name));
    keys.push_back(key_of(aigs.back(), params));
    results.push_back(engine.run(aigs.back(), params));
    ASSERT_TRUE(results.back().ok()) << name;
    total_bytes += serve::estimate_result_bytes(results.back());
  }

  // A budget one byte short of all three entries (single shard: the budget
  // is the whole cache): any two fit, the third forces an eviction.
  serve::CacheConfig config;
  config.num_shards = 1;
  config.max_bytes = total_bytes - 1;
  serve::FlowCache cache(config);

  cache.store(keys[0], results[0]);
  cache.store(keys[1], results[1]);
  EXPECT_EQ(cache.stats().entries, 2u);

  // Touch [0] so [1] is the LRU victim when [2] arrives.
  t1::EngineResult out;
  ASSERT_TRUE(cache.lookup(keys[0], out));
  cache.store(keys[2], results[2]);

  const serve::CacheStats c = cache.stats();
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.entries, 2u);
  EXPECT_LE(c.bytes, config.max_bytes);
  EXPECT_TRUE(cache.lookup(keys[0], out));   // recently used: survived
  EXPECT_FALSE(cache.lookup(keys[1], out));  // LRU: evicted
  EXPECT_TRUE(cache.lookup(keys[2], out));
}

TEST(FlowCache, ConcurrentHitMissHammering) {
  // 8 threads hammer a 4-entry working set through lookup+store; the TSan
  // CI leg runs this test to prove the sharded locking sound.
  t1::FlowEngine engine;
  t1::FlowParams params;
  params.verify_rounds = 0;
  const std::vector<std::string> names = {"adder8", "adder10", "adder12",
                                          "adder14"};
  std::vector<serve::RunKey> keys;
  std::vector<t1::EngineResult> results;
  for (const std::string& name : names) {
    const Aig aig = gen::make_named(name);
    keys.push_back(key_of(aig, params));
    results.push_back(engine.run(aig, params));
    ASSERT_TRUE(results.back().ok());
  }

  serve::FlowCache cache;  // default config: 8 shards, ample budget
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t j =
            static_cast<std::size_t>(t + i) % keys.size();
        t1::EngineResult out;
        if (cache.lookup(keys[j], out)) {
          if (out.stats.area_jj != results[j].stats.area_jj) {
            ++mismatches[t];
          }
        } else {
          cache.store(keys[j], results[j]);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const int m : mismatches) EXPECT_EQ(m, 0);

  const serve::CacheStats c = cache.stats();
  EXPECT_EQ(c.hits + c.misses,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_GT(c.hits, 0u);
  EXPECT_LE(c.entries, names.size());
}

// --- Server protocol ---------------------------------------------------------

/// Runs a JSONL script through a fresh server; returns response lines.
std::vector<std::string> serve_script(const std::string& script,
                                      serve::ServeConfig config) {
  serve::Server server(config);
  std::istringstream in(script);
  std::ostringstream out;
  server.serve(in, out);
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  std::string line;
  while (std::getline(split, line)) lines.push_back(line);
  return lines;
}

/// Canonicalizes a response for cross-session comparison: parses and
/// re-dumps it without the timing members ("ms" on job responses, the
/// "latency" histograms inside a stats response) at any nesting level.
io::Json strip_timing(const io::Json& value) {
  if (!value.is_object()) return value;
  io::Json cleaned = io::Json::object();
  for (const auto& [key, member] : value.members()) {
    if (key == "ms" || key == "latency") continue;
    cleaned.set(key, strip_timing(member));
  }
  return cleaned;
}

std::string strip_ms(const std::string& line) {
  return strip_timing(io::Json::parse(line)).dump(-1);
}

serve::ServeConfig fast_config() {
  serve::ServeConfig config;
  config.defaults.verify_rounds = 0;
  config.defaults.cec = false;  // SAT time is not what these tests test
  return config;
}

TEST(Server, ProtocolOrderingHitsAndErrors) {
  const std::string script =
      "{\"id\":1,\"gen\":\"adder16\"}\n"
      "{\"id\":2,\"gen\":\"adder16\"}\n"
      "\n"  // blank keep-alive line: ignored
      "{\"id\":3,\"gen\":\"no_such_gen\"}\n"
      "{\"id\":4,\"gen\":\"adder16\",\"config\":\"nphi\"}\n"
      "{\"id\":5,\"nope\":true}\n"
      "{\"id\":6,\"cmd\":\"stats\"}\n";
  const std::vector<std::string> lines = serve_script(script, fast_config());
  ASSERT_EQ(lines.size(), 6u);

  // Responses arrive in request order, ids echoed.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const io::Json r = io::Json::parse(lines[i]);
    EXPECT_EQ(r.at("id").as_number(), static_cast<double>(i + 1)) << lines[i];
  }

  const io::Json r1 = io::Json::parse(lines[0]);
  EXPECT_TRUE(r1.at("ok").as_bool());
  EXPECT_FALSE(r1.at("cached").as_bool());
  EXPECT_EQ(r1.at("design").as_string(), "adder16");
  EXPECT_EQ(r1.at("cec").as_string(), "skipped");
  // Golden adder16/4phi/t1 row (golden_flow.hpp).
  EXPECT_EQ(r1.at("stats").at("jj_total").as_number(), 1058);
  EXPECT_EQ(r1.at("stats").at("dffs").as_number(), 85);
  EXPECT_EQ(r1.at("input").at("ands").as_number(), 154);

  // Same job again: a batch-internal duplicate — served as a hit.
  const io::Json r2 = io::Json::parse(lines[1]);
  EXPECT_TRUE(r2.at("cached").as_bool());
  EXPECT_EQ(r2.at("stats").at("jj_total").as_number(), 1058);
  EXPECT_EQ(r2.at("ms").as_number(), 0.0);

  const io::Json r3 = io::Json::parse(lines[2]);
  EXPECT_FALSE(r3.at("ok").as_bool());
  EXPECT_NE(r3.at("error").as_string().find("adder<N>"), std::string::npos)
      << "make_named failure must list the generator families";

  // nphi differs from t1: a distinct cache key, so a fresh miss.
  const io::Json r4 = io::Json::parse(lines[3]);
  EXPECT_TRUE(r4.at("ok").as_bool());
  EXPECT_FALSE(r4.at("cached").as_bool());
  EXPECT_EQ(r4.at("stats").at("jj_total").as_number(), 1831);

  const io::Json r5 = io::Json::parse(lines[4]);
  EXPECT_FALSE(r5.at("ok").as_bool());
  EXPECT_NE(r5.at("error").as_string().find("unknown field"),
            std::string::npos);

  const io::Json r6 = io::Json::parse(lines[5]);
  const io::Json& cache_stats = r6.at("serve").at("cache");
  EXPECT_EQ(cache_stats.at("insertions").as_number(), 2);  // t1 + nphi
  EXPECT_GE(cache_stats.at("hits").as_number(), 1);
  EXPECT_EQ(r6.at("serve").at("errors").as_number(), 2);
}

TEST(Server, InBatchDuplicatesCountAMissThenAHit) {
  // adder16, mul8, adder16 in three batches of three: config t1, t1 again,
  // then nphi.  An in-batch duplicate misses with its first occurrence and
  // hits once that occurrence is stored, so it computes nothing.
  std::string script;
  int id = 0;
  for (const char* config : {"t1", "t1", "nphi"}) {
    for (const char* gen : {"adder16", "mul8", "adder16"}) {
      script += "{\"id\":" + std::to_string(++id) + ",\"gen\":\"" + gen +
                "\",\"config\":\"" + config + "\"}\n";
    }
  }
  script += "{\"id\":10,\"cmd\":\"stats\"}\n";
  serve::ServeConfig config = fast_config();
  config.threads = 2;
  config.batch_size = 3;
  const std::vector<std::string> lines = serve_script(script, config);
  ASSERT_EQ(lines.size(), 10u);

  const std::vector<bool> cached = {false, false, true,  true, true,
                                    true,  false, false, true};
  std::vector<io::Json> flows;
  for (std::size_t i = 0; i < cached.size(); ++i) {
    flows.push_back(io::Json::parse(lines[i]));
    ASSERT_TRUE(flows[i].at("ok").as_bool()) << lines[i];
    EXPECT_EQ(flows[i].at("cached").as_bool(), cached[i]) << lines[i];
  }
  for (std::size_t first = 0; first < flows.size(); first += 3) {
    EXPECT_EQ(flows[first].at("stats").dump(-1),
              flows[first + 2].at("stats").dump(-1))
        << "batch " << first / 3;
  }

  const io::Json stats = io::Json::parse(lines[9]);
  EXPECT_EQ(stats.at("serve").at("batches").as_number(), 4);
  const io::Json& cache = stats.at("serve").at("cache");
  EXPECT_EQ(cache.at("hits").as_number(), 5);
  EXPECT_EQ(cache.at("misses").as_number(), 6);
  EXPECT_EQ(cache.at("insertions").as_number(), 4);
  EXPECT_EQ(cache.at("entries").as_number(), 4);
}

TEST(Server, InBatchDuplicateOfAnUncachedResultCopiesIt) {
  // A one-byte memory budget keeps no entry, so the duplicate misses
  // again after its first occurrence is stored and takes a copy of that
  // result instead.
  serve::ServeConfig config = fast_config();
  config.cache.max_bytes = 1;
  config.cache.num_shards = 1;
  const std::vector<std::string> lines = serve_script(
      "{\"id\":1,\"gen\":\"adder8\"}\n{\"id\":2,\"gen\":\"adder8\"}\n"
      "{\"id\":3,\"cmd\":\"stats\"}\n",
      config);
  ASSERT_EQ(lines.size(), 3u);
  const io::Json first = io::Json::parse(lines[0]);
  const io::Json duplicate = io::Json::parse(lines[1]);
  ASSERT_TRUE(duplicate.at("ok").as_bool()) << lines[1];
  EXPECT_FALSE(duplicate.at("cached").as_bool());
  EXPECT_EQ(first.at("stats").dump(-1), duplicate.at("stats").dump(-1));
  // Only the first occurrence ran the flow, so only it reports flow time.
  EXPECT_GT(first.at("ms").as_number(), 0);
  EXPECT_EQ(duplicate.at("ms").as_number(), 0);

  const io::Json stats = io::Json::parse(lines[2]);
  const io::Json& cache = stats.at("serve").at("cache");
  EXPECT_EQ(cache.at("hits").as_number(), 0);
  EXPECT_EQ(cache.at("misses").as_number(), 3);
  EXPECT_EQ(cache.at("entries").as_number(), 0);
  // The copy ran no flow.
  EXPECT_EQ(stats.at("serve").at("incremental").at("flow_runs").as_number(),
            1);
}

TEST(Server, LatencyRecordsEachRequestsOwnCost) {
  // README's example session: the miss records its lookup and its flow
  // run, the in-batch duplicate only its lookups, so the two samples
  // land in different buckets.
  const std::vector<std::string> lines = serve_script(
      "{\"id\":1,\"gen\":\"adder16\"}\n{\"id\":2,\"gen\":\"adder16\"}\n"
      "{\"id\":3,\"cmd\":\"stats\"}\n",
      serve::ServeConfig{});
  ASSERT_EQ(lines.size(), 3u);
  const io::Json latency =
      io::Json::parse(lines[2]).at("serve").at("latency").at("t1");
  EXPECT_EQ(latency.at("count").as_number(), 2);
  const io::Json& buckets = latency.at("buckets");
  ASSERT_EQ(buckets.size(), 2u) << latency.dump(-1);
  EXPECT_EQ(buckets.at(0).at(1).as_number(), 1);
  EXPECT_EQ(buckets.at(1).at(1).as_number(), 1);
  EXPECT_LT(latency.at("mean_ms").as_number(),
            latency.at("max_ms").as_number());
}

/// Every member path of `value` in document order ("a.b", "a.list[1].c"),
/// values ignored; `latency` is listed but not entered.
void collect_key_paths(const io::Json& value, const std::string& path,
                       std::string& out) {
  if (value.is_object()) {
    for (const auto& [key, member] : value.members()) {
      const std::string child = path.empty() ? key : path + "." + key;
      out += (out.empty() ? "" : " ") + child;
      if (key != "latency") collect_key_paths(member, child, out);
    }
  } else if (value.is_array()) {
    for (std::size_t i = 0; i < value.size(); ++i) {
      collect_key_paths(value.at(i), path + "[" + std::to_string(i) + "]",
                        out);
    }
  }
}

TEST(Server, StatsKeyPathsArePinned) {
  // perfbench's serve-mix and scripts/serve_smoke.py read this document,
  // so its member paths and their order are fixed, with and without a
  // disk tier.
  const std::string head =
      "id ok serve serve.requests serve.batches serve.errors "
      "serve.connections serve.cache serve.cache.hits serve.cache.misses "
      "serve.cache.insertions serve.cache.evictions serve.cache.entries "
      "serve.cache.bytes serve.cache.tiers serve.cache.tiers[0].name "
      "serve.cache.tiers[0].hits serve.cache.tiers[0].misses "
      "serve.cache.tiers[0].insertions serve.cache.tiers[0].evictions "
      "serve.cache.tiers[0].entries serve.cache.tiers[0].bytes "
      "serve.cache.tiers[0].shards";
  const std::string disk =
      " serve.cache.tiers[1].name serve.cache.tiers[1].hits "
      "serve.cache.tiers[1].misses serve.cache.tiers[1].insertions "
      "serve.cache.tiers[1].evictions serve.cache.tiers[1].entries "
      "serve.cache.tiers[1].bytes serve.cache.tiers[1].recovered_entries "
      "serve.cache.tiers[1].recovered_truncated_bytes";
  const std::string tail =
      " serve.incremental serve.incremental.flow_runs "
      "serve.incremental.map_cones_total serve.incremental.map_cones_reused "
      "serve.incremental.map_hit_rate serve.incremental.t1_cones_total "
      "serve.incremental.t1_cones_reused serve.incremental.t1_hit_rate "
      "serve.incremental.t1_exact_hits serve.incremental.stage_splice_hits "
      "serve.latency";
  const std::string script =
      "{\"id\":1,\"gen\":\"adder8\"}\n{\"id\":2,\"cmd\":\"stats\"}\n";
  const auto stats_paths = [&script](const serve::ServeConfig& config) {
    const std::vector<std::string> lines = serve_script(script, config);
    EXPECT_EQ(lines.size(), 2u);
    std::string paths;
    if (lines.size() == 2) {
      collect_key_paths(io::Json::parse(lines[1]), "", paths);
    }
    return paths;
  };

  EXPECT_EQ(stats_paths(fast_config()), head + tail);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "t1map_stats_key_paths";
  std::filesystem::remove_all(dir);
  serve::ServeConfig config = fast_config();
  config.cache_dir = dir.string();
  EXPECT_EQ(stats_paths(config), head + disk + tail);
  std::filesystem::remove_all(dir);
}

TEST(Server, InlineBlifJobsShareTheCacheWithGeneratorJobs) {
  // The same circuit submitted as a generator job and as inline BLIF text
  // (the source AIG, round-tripped through the writer) hashes identically,
  // so the second submission is a pure cache hit.
  const Aig aig = gen::make_named("adder8");
  std::ostringstream src;
  io::write_blif(src, aig, "adder8_rt");
  io::Json request = io::Json::object();
  request.set("id", "blif-job");
  request.set("blif", src.str());
  request.set("verify_rounds", 0);
  request.set("cec", false);

  const std::string script =
      "{\"id\":1,\"gen\":\"adder8\"}\n" + request.dump(-1) + "\n";
  const std::vector<std::string> lines = serve_script(script, fast_config());
  ASSERT_EQ(lines.size(), 2u);
  const io::Json r1 = io::Json::parse(lines[0]);
  const io::Json r2 = io::Json::parse(lines[1]);
  ASSERT_TRUE(r1.at("ok").as_bool()) << lines[0];
  ASSERT_TRUE(r2.at("ok").as_bool()) << lines[1];
  EXPECT_FALSE(r1.at("cached").as_bool());
  EXPECT_TRUE(r2.at("cached").as_bool());
  EXPECT_EQ(r2.at("design").as_string(), "adder8_rt");
  EXPECT_EQ(r1.at("stats").at("jj_total").as_number(),
            r2.at("stats").at("jj_total").as_number());
}

TEST(Server, InlineAigerJobsShareTheCacheWithGeneratorJobs) {
  // Same circuit as a generator job and as an inline ASCII AIGER payload:
  // identical structural hash, so the second submission is a cache hit.
  const Aig aig = gen::make_named("adder8");
  std::ostringstream src;
  io::write_aiger(src, aig);
  io::Json request = io::Json::object();
  request.set("id", "aiger-job");
  request.set("aiger", src.str());
  request.set("verify_rounds", 0);
  request.set("cec", false);

  const std::string script =
      "{\"id\":1,\"gen\":\"adder8\"}\n" + request.dump(-1) + "\n";
  const std::vector<std::string> lines = serve_script(script, fast_config());
  ASSERT_EQ(lines.size(), 2u);
  const io::Json r1 = io::Json::parse(lines[0]);
  const io::Json r2 = io::Json::parse(lines[1]);
  ASSERT_TRUE(r1.at("ok").as_bool()) << lines[0];
  ASSERT_TRUE(r2.at("ok").as_bool()) << lines[1];
  EXPECT_FALSE(r1.at("cached").as_bool());
  EXPECT_TRUE(r2.at("cached").as_bool());
  EXPECT_EQ(r2.at("design").as_string(), "aiger");
  EXPECT_EQ(r1.at("stats").at("jj_total").as_number(),
            r2.at("stats").at("jj_total").as_number());
}

TEST(Server, RejectsBadAigerJobs) {
  // A sequential payload and an ambiguous circuit spec both fail cleanly
  // with the reader's / parser's diagnostic in the error field.
  io::Json sequential = io::Json::object();
  sequential.set("id", 1);
  sequential.set("aiger", "aag 2 1 1 1 0\n2\n4 2\n4\n");
  io::Json ambiguous = io::Json::object();
  ambiguous.set("id", 2);
  ambiguous.set("gen", "adder8");
  ambiguous.set("aiger", "aag 0 0 0 0 0\n");

  const std::string script =
      sequential.dump(-1) + "\n" + ambiguous.dump(-1) + "\n";
  const std::vector<std::string> lines = serve_script(script, fast_config());
  ASSERT_EQ(lines.size(), 2u);
  const io::Json r1 = io::Json::parse(lines[0]);
  EXPECT_FALSE(r1.at("ok").as_bool());
  EXPECT_NE(r1.at("error").as_string().find("sequential"), std::string::npos)
      << lines[0];
  const io::Json r2 = io::Json::parse(lines[1]);
  EXPECT_FALSE(r2.at("ok").as_bool());
  EXPECT_NE(r2.at("error").as_string().find("exactly one"), std::string::npos)
      << lines[1];
}

TEST(Server, DeterministicAcrossThreadCounts) {
  const std::string script =
      "{\"id\":1,\"gen\":\"adder16\"}\n"
      "{\"id\":2,\"gen\":\"mul8\"}\n"
      "{\"id\":3,\"gen\":\"voter25\"}\n"
      "{\"id\":4,\"gen\":\"adder16\"}\n"
      "{\"id\":5,\"gen\":\"comparator16\",\"config\":\"nphi\"}\n"
      "{\"id\":6,\"gen\":\"mul8\"}\n"
      "{\"id\":7,\"cmd\":\"stats\"}\n";
  serve::ServeConfig c1 = fast_config();
  c1.threads = 1;
  serve::ServeConfig c4 = fast_config();
  c4.threads = 4;
  const std::vector<std::string> r1 = serve_script(script, c1);
  const std::vector<std::string> r4 = serve_script(script, c4);
  ASSERT_EQ(r1.size(), 7u);
  ASSERT_EQ(r4.size(), 7u);
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(strip_ms(r1[i]), strip_ms(r4[i])) << "response " << i;
  }
}

TEST(Server, SurvivesHostileAndContradictoryRequests) {
  // A pathologically nested line must come back as an error response, not
  // blow the parser's stack and kill the session; command/job field mixes
  // and 1phi/phases contradictions are rejected loudly.
  const std::string script =
      std::string(100, '[') + "\n" +
      "{\"id\":2,\"cmd\":\"stats\",\"gen\":\"adder8\"}\n"
      "{\"id\":3,\"gen\":\"adder8\",\"config\":\"1phi\","
      "\"phases\":\"garbage\"}\n"
      "{\"id\":4,\"gen\":\"adder8\",\"config\":\"1phi\",\"phases\":4}\n"
      "{\"id\":5,\"gen\":\"adder8\",\"config\":\"1phi\",\"phases\":1}\n";
  const std::vector<std::string> lines = serve_script(script, fast_config());
  ASSERT_EQ(lines.size(), 5u);

  const io::Json r1 = io::Json::parse(lines[0]);
  EXPECT_FALSE(r1.at("ok").as_bool());
  EXPECT_NE(r1.at("error").as_string().find("nesting"), std::string::npos)
      << lines[0];

  const io::Json r2 = io::Json::parse(lines[1]);
  EXPECT_FALSE(r2.at("ok").as_bool());
  EXPECT_NE(r2.at("error").as_string().find("job field"), std::string::npos)
      << lines[1];

  const io::Json r3 = io::Json::parse(lines[2]);
  EXPECT_FALSE(r3.at("ok").as_bool());
  EXPECT_NE(r3.at("error").as_string().find("phases"), std::string::npos)
      << lines[2];

  const io::Json r4 = io::Json::parse(lines[3]);
  EXPECT_FALSE(r4.at("ok").as_bool());
  EXPECT_NE(r4.at("error").as_string().find("single-phase"),
            std::string::npos)
      << lines[3];

  // An explicit phases:1 agrees with 1phi and is accepted.
  const io::Json r5 = io::Json::parse(lines[4]);
  EXPECT_TRUE(r5.at("ok").as_bool()) << lines[4];
  EXPECT_EQ(r5.at("stats").at("t1_found").as_number(), 0);
}

TEST(JsonParser, BoundsNestingDepth) {
  // 64 levels parse; beyond fails as ContractError (not a stack overflow).
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') + "1" +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(io::Json::parse(nested(64)));
  EXPECT_THROW(io::Json::parse(nested(65)), ContractError);
  EXPECT_THROW(io::Json::parse(std::string(100000, '[')), ContractError);
}

TEST(Server, QuitCommandStopsTheLoop) {
  const std::string script =
      "{\"id\":1,\"cmd\":\"quit\"}\n"
      "{\"id\":2,\"gen\":\"adder8\"}\n";  // never reached
  const std::vector<std::string> lines = serve_script(script, fast_config());
  ASSERT_EQ(lines.size(), 1u);
  const io::Json r = io::Json::parse(lines[0]);
  EXPECT_TRUE(r.at("ok").as_bool());
  EXPECT_TRUE(r.at("quit").as_bool());
}

TEST(Server, RejectedQuitDoesNotStopTheLoop) {
  // A quit carrying job fields is rejected — and must not end the session.
  const std::string script =
      "{\"id\":1,\"cmd\":\"quit\",\"gen\":\"adder8\"}\n"
      "{\"id\":2,\"gen\":\"adder8\"}\n";
  const std::vector<std::string> lines = serve_script(script, fast_config());
  ASSERT_EQ(lines.size(), 2u);
  const io::Json r1 = io::Json::parse(lines[0]);
  EXPECT_FALSE(r1.at("ok").as_bool());
  EXPECT_NE(r1.at("error").as_string().find("job field"), std::string::npos);
  const io::Json r2 = io::Json::parse(lines[1]);
  EXPECT_TRUE(r2.at("ok").as_bool()) << lines[1];
}

// --- JsonWriter --------------------------------------------------------------

TEST(JsonWriter, StreamsEscapedDocumentsTheParserRoundTrips) {
  std::ostringstream os;
  io::JsonWriter w(os);
  const std::string nasty = "a\"b\\c\nd\te\rf\bg\fh\x01i";
  w.begin_object()
      .key("s")
      .value(nasty)
      .key("n")
      .value(42)
      .key("f")
      .value(2.5)
      .key("b")
      .value(true)
      .key("z")
      .value_null()
      .key("arr")
      .begin_array()
      .value(1)
      .value("two")
      .end_array()
      .end_object();
  ASSERT_TRUE(w.complete());

  const io::Json parsed = io::Json::parse(os.str());
  EXPECT_EQ(parsed.at("s").as_string(), nasty);
  EXPECT_EQ(parsed.at("n").as_number(), 42);
  EXPECT_EQ(parsed.at("f").as_number(), 2.5);
  EXPECT_TRUE(parsed.at("b").as_bool());
  EXPECT_TRUE(parsed.at("z").is_null());
  EXPECT_EQ(parsed.at("arr").at(1).as_string(), "two");
  // Streamed output and DOM compact dump agree byte for byte.
  EXPECT_EQ(os.str(), parsed.dump(-1));
}

TEST(JsonWriter, RejectsMalformedNesting) {
  std::ostringstream os;
  io::JsonWriter w(os);
  w.begin_object();
  EXPECT_THROW(w.value(1), ContractError);       // value without key
  EXPECT_THROW(w.end_array(), ContractError);    // wrong closer
  w.key("k");
  EXPECT_THROW(w.key("k2"), ContractError);      // key upon key
  w.value(1);
  w.end_object();
  EXPECT_THROW(w.value(2), ContractError);       // document already complete
}

}  // namespace
}  // namespace t1map
