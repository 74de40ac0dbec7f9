// The persistent cache tier: the binary result codec (round-trip, pinned
// payload layout, corruption rejection), the log-structured DiskCache
// (reopen warm start, torn-tail crash recovery, checksum self-healing,
// capacity rejection, version refusal), and the TieredCache composition
// (promotion, write-through, zeroed reuse counters on hits from either
// tier, concurrent two-tier hammering — the TSan CI leg runs this suite).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/registry.hpp"
#include "golden_flow.hpp"
#include "serve/disk_cache.hpp"
#include "serve/flow_cache.hpp"
#include "serve/result_codec.hpp"
#include "serve/tiered_cache.hpp"
#include "serve_test_util.hpp"
#include "t1/flow_engine.hpp"

namespace t1map {
namespace {

using testutil::expect_results_identical;
using testutil::key_of;

namespace fs = std::filesystem;

/// Fresh per-test cache directory under the system temp dir.
fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("t1map_" + name);
  fs::remove_all(dir);
  return dir;
}

/// One real flow result (adder8, t1 config, no verification).
const t1::EngineResult& sample_result() {
  static const t1::EngineResult result = [] {
    t1::FlowEngine engine;
    t1::FlowParams params;
    params.verify_rounds = 0;
    t1::EngineResult r = engine.run(gen::make_named("adder8"), params);
    EXPECT_TRUE(r.ok());
    return r;
  }();
  return result;
}

t1::FlowParams fast_params() {
  t1::FlowParams params;
  params.verify_rounds = 0;
  return params;
}

// --- Result codec ------------------------------------------------------------

TEST(ResultCodec, RoundTripsStatusVerdictAndStats) {
  const t1::EngineResult& original = sample_result();
  const std::string bytes = serve::encode_result(original);
  const t1::EngineResult decoded = serve::decode_result(bytes);
  expect_results_identical(original, decoded, "codec round-trip");
  // Nothing else is persisted: a cached result costs no flow time and
  // carries no netlist or diagnostics.
  EXPECT_EQ(decoded.times.map, 0.0);
  EXPECT_EQ(decoded.times.cec, 0.0);
  EXPECT_EQ(decoded.mapped.num_nodes(), 0u);
  EXPECT_FALSE(decoded.has_materialized);
  EXPECT_TRUE(decoded.diagnostics.empty());
  // The encoding itself is deterministic (same result -> same bytes).
  EXPECT_EQ(bytes, serve::encode_result(decoded));
}

// The payload's exact bytes.  Changing them (a field added, dropped or
// reordered) needs a kResultCodecVersion bump: a directory of the old
// layout would otherwise decode into the wrong stats without an error.
TEST(ResultCodec, PayloadLayoutIsPinned) {
  const std::string bytes = serve::encode_result(sample_result());
  std::string hex;
  for (const char c : bytes) {
    constexpr char kDigits[] = "0123456789abcdef";
    hex += kDigits[(static_cast<unsigned char>(c) >> 4) & 0xF];
    hex += kDigits[static_cast<unsigned char>(c) & 0xF];
  }
  EXPECT_EQ(bytes.size(), 68u);
  EXPECT_EQ(hex,
            "00"                        // status: ok
            "07000000"                  // cec: length 7,
            "736b6970706564"            //   "skipped"
            "1300000000000000"          // dffs: 19
            "6c01000000000000"          // area_jj: 364
            "03000000"                  // depth_cycles: 3
            "07000000"                  // t1_found: 7
            "07000000"                  // t1_used: 7
            "0700000000000000"          // t1_cores: 7
            "0200000000000000"          // logic_cells: 2
            "0200000000000000"          // splitters: 2
            "0a000000")                 // num_stages: 10
      << hex;

  // Every Table-I golden row fits in one small record.
  t1::FlowEngine engine;
  for (const Golden& g : golden_rows()) {
    t1::FlowParams params;
    params.num_phases = g.phases;
    params.use_t1 = g.use_t1;
    params.verify_rounds = 0;
    const t1::EngineResult result =
        engine.run(gen::make_named(g.gen), params);
    ASSERT_TRUE(result.ok()) << g.gen;
    EXPECT_LE(serve::encode_result(result).size(), 128u)
        << g.gen << "/" << g.phases << (g.use_t1 ? "/t1" : "/base");
  }
}

TEST(ResultCodec, RejectsTruncationAndTrailingGarbage) {
  const std::string bytes = serve::encode_result(sample_result());
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1},
                                bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW(serve::decode_result(std::string_view(bytes).substr(0, cut)),
                 ContractError)
        << "truncated at " << cut;
  }
  EXPECT_THROW(serve::decode_result(bytes + '\0'), ContractError);
}

TEST(ResultCodec, ChecksumCoversEveryByte) {
  const std::string bytes = serve::encode_result(sample_result());
  const std::uint64_t reference = serve::payload_checksum(bytes);
  std::string mutated = bytes;
  for (const std::size_t pos : {std::size_t{0}, bytes.size() / 2,
                                bytes.size() - 1}) {
    mutated[pos] ^= 0x01;
    EXPECT_NE(serve::payload_checksum(mutated), reference) << pos;
    mutated[pos] ^= 0x01;
  }
}

// --- DiskCache ---------------------------------------------------------------

TEST(DiskCache, ReopenServesWarmHitsWithTheColdStats) {
  const fs::path dir = fresh_dir("disk_reopen");
  t1::FlowEngine engine;
  const t1::FlowParams params = fast_params();

  const std::vector<std::string> names = {"adder8", "adder12", "mul8"};
  std::vector<serve::RunKey> keys;
  std::vector<t1::EngineResult> cold;
  for (const std::string& name : names) {
    const Aig aig = gen::make_named(name);
    keys.push_back(key_of(aig, params));
    cold.push_back(engine.run(aig, params));
    ASSERT_TRUE(cold.back().ok()) << name;
  }

  {
    serve::DiskCacheConfig config;
    config.dir = dir.string();
    serve::DiskCache cache(config);
    EXPECT_EQ(cache.recovered_entries(), 0u);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      cache.store(keys[i], cold[i]);
    }
    EXPECT_EQ(cache.stats().insertions, keys.size());
    // Duplicate store: first write wins, no second record.
    cache.store(keys[0], cold[0]);
    EXPECT_EQ(cache.stats().insertions, keys.size());
  }  // destructor closes the files — a clean "server restart"

  serve::DiskCacheConfig config;
  config.dir = dir.string();
  serve::DiskCache reopened(config);
  EXPECT_EQ(reopened.recovered_entries(), keys.size());
  EXPECT_EQ(reopened.recovered_truncated_bytes(), 0u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    t1::EngineResult warm;
    ASSERT_TRUE(reopened.lookup(keys[i], warm)) << names[i];
    expect_results_identical(cold[i], warm, names[i]);
    EXPECT_EQ(warm.times.map, 0.0) << names[i];  // times are zeroed
  }
  t1::EngineResult out;
  EXPECT_FALSE(reopened.lookup(serve::RunKey{1, 2}, out));
  fs::remove_all(dir);
}

TEST(DiskCache, RecoversFromTornTailWrites) {
  const fs::path dir = fresh_dir("disk_torn");
  t1::FlowEngine engine;
  const t1::FlowParams params = fast_params();
  const Aig good_aig = gen::make_named("adder8");
  const serve::RunKey good_key = key_of(good_aig, params);
  const t1::EngineResult good = engine.run(good_aig, params);
  ASSERT_TRUE(good.ok());

  std::uintmax_t records_committed = 0;
  std::uintmax_t index_committed = 0;
  {
    serve::DiskCacheConfig config;
    config.dir = dir.string();
    serve::DiskCache cache(config);
    cache.store(good_key, good);
    records_committed = fs::file_size(dir / "records.t1c");
    index_committed = fs::file_size(dir / "index.t1c");
  }

  // Simulate a crash mid-store: a half-written record with no index entry,
  // plus a dangling index entry pointing past the log end, plus a partial
  // trailing index entry.
  {
    std::ofstream records(dir / "records.t1c",
                          std::ios::binary | std::ios::app);
    records.write("TORNRECORDBYTES", 15);
  }
  {
    std::ofstream index(dir / "index.t1c", std::ios::binary | std::ios::app);
    std::string dangling(28, '\0');
    // Offset far past the log end (and large enough that naive offset+len
    // arithmetic would overflow — recovery must not wrap).
    for (int i = 16; i < 24; ++i) dangling[i] = '\xff';
    index.write(dangling.data(), 28);
    index.write("PARTIAL", 7);
  }

  serve::DiskCacheConfig config;
  config.dir = dir.string();
  serve::DiskCache recovered(config);
  // The committed entry survives; the torn tail is measured and dropped.
  EXPECT_EQ(recovered.recovered_entries(), 1u);
  EXPECT_EQ(recovered.recovered_truncated_bytes(), 15u + 28u + 7u);
  EXPECT_EQ(fs::file_size(dir / "records.t1c"), records_committed);
  EXPECT_EQ(fs::file_size(dir / "index.t1c"), index_committed);

  t1::EngineResult warm;
  ASSERT_TRUE(recovered.lookup(good_key, warm));
  expect_results_identical(good, warm, "post-recovery hit");
  // The log is appendable again after truncation.
  const Aig other_aig = gen::make_named("adder12");
  const serve::RunKey other_key = key_of(other_aig, params);
  const t1::EngineResult other = engine.run(other_aig, params);
  ASSERT_TRUE(other.ok());
  recovered.store(other_key, other);
  ASSERT_TRUE(recovered.lookup(other_key, warm));
  expect_results_identical(other, warm, "post-recovery store");
  fs::remove_all(dir);
}

TEST(DiskCache, CorruptPayloadIsDroppedNotServed) {
  const fs::path dir = fresh_dir("disk_corrupt");
  t1::FlowEngine engine;
  const t1::FlowParams params = fast_params();
  const Aig aig = gen::make_named("adder8");
  const serve::RunKey key = key_of(aig, params);
  const t1::EngineResult result = engine.run(aig, params);
  ASSERT_TRUE(result.ok());

  serve::DiskCacheConfig config;
  config.dir = dir.string();
  {
    serve::DiskCache cache(config);
    cache.store(key, result);
  }
  {
    // Flip one payload byte near the end of the record log.
    std::fstream records(dir / "records.t1c",
                         std::ios::binary | std::ios::in | std::ios::out);
    records.seekg(-1, std::ios::end);
    char byte = 0;
    records.get(byte);
    records.seekp(-1, std::ios::end);
    records.put(static_cast<char>(byte ^ 0x55));
  }

  serve::DiskCache cache(config);
  EXPECT_EQ(cache.recovered_entries(), 1u);
  t1::EngineResult out;
  EXPECT_FALSE(cache.lookup(key, out));  // checksum fails -> miss, healed
  EXPECT_FALSE(cache.lookup(key, out));  // stays gone
  const serve::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 0u);
  // The slot is rewritable: a fresh store serves again.
  cache.store(key, result);
  ASSERT_TRUE(cache.lookup(key, out));
  expect_results_identical(result, out, "post-heal rewrite");
  fs::remove_all(dir);
}

TEST(DiskCache, FullLogRejectsStoresAndCountsThem) {
  const fs::path dir = fresh_dir("disk_full");
  t1::FlowEngine engine;
  const t1::FlowParams params = fast_params();
  const Aig a = gen::make_named("adder8");
  const Aig b = gen::make_named("adder12");
  const t1::EngineResult ra = engine.run(a, params);
  const t1::EngineResult rb = engine.run(b, params);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());

  serve::DiskCacheConfig config;
  config.dir = dir.string();
  // Room for the first record but not the second.
  config.max_bytes = 8 + 32 + serve::encode_result(ra).size();
  serve::DiskCache cache(config);
  cache.store(key_of(a, params), ra);
  cache.store(key_of(b, params), rb);  // over budget: rejected
  const serve::CacheStats s = cache.stats();
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.evictions, 1u);  // the rejected store
  t1::EngineResult out;
  EXPECT_TRUE(cache.lookup(key_of(a, params), out));
  EXPECT_FALSE(cache.lookup(key_of(b, params), out));
  fs::remove_all(dir);
}

TEST(DiskCache, RejectsForeignAndIncompatibleFiles) {
  const fs::path dir = fresh_dir("disk_foreign");
  fs::create_directories(dir);
  {
    std::ofstream records(dir / "records.t1c", std::ios::binary);
    records << "definitely not a cache file";
  }
  serve::DiskCacheConfig config;
  config.dir = dir.string();
  EXPECT_THROW(serve::DiskCache{config}, ContractError);

  // A t1map cache of another codec version: the records magic ("T1CR"),
  // then the next version, both little-endian.  It is refused at open.
  {
    std::ofstream records(dir / "records.t1c", std::ios::binary);
    for (const std::uint32_t word :
         {std::uint32_t{0x54314352}, serve::kResultCodecVersion + 1}) {
      for (int i = 0; i < 4; ++i) {
        records.put(static_cast<char>((word >> (8 * i)) & 0xFF));
      }
    }
  }
  try {
    serve::DiskCache cache(config);
    ADD_FAILURE() << "a cache of another codec version must be refused";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("incompatible cache version"),
              std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

// --- TieredCache -------------------------------------------------------------

TEST(TieredCache, PromotesDiskHitsIntoMemory) {
  const fs::path dir = fresh_dir("tier_promote");
  t1::FlowEngine engine;
  const t1::FlowParams params = fast_params();
  const Aig aig = gen::make_named("adder8");
  const serve::RunKey key = key_of(aig, params);
  const t1::EngineResult cold = engine.run(aig, params);
  ASSERT_TRUE(cold.ok());

  // Seed only the disk tier (a previous server's run).
  {
    serve::DiskCacheConfig config;
    config.dir = dir.string();
    serve::DiskCache seeder(config);
    seeder.store(key, cold);
  }

  serve::TieredCache tiers({}, dir.string());
  ASSERT_NE(tiers.disk(), nullptr);

  // First lookup: memory misses, disk hits, result promoted to memory.
  t1::EngineResult out;
  ASSERT_TRUE(tiers.lookup(key, out));
  expect_results_identical(cold, out, "disk hit");
  EXPECT_EQ(tiers.memory().stats().entries, 1u);

  // Second lookup is served by the memory tier (disk hit count frozen).
  const std::uint64_t disk_hits = tiers.disk()->stats().hits;
  ASSERT_TRUE(tiers.lookup(key, out));
  EXPECT_EQ(tiers.disk()->stats().hits, disk_hits);
  EXPECT_EQ(tiers.memory().stats().hits, 1u);
  EXPECT_EQ(tiers.stats().hits, 2u);  // composition: both were tiered hits

  // A miss everywhere is one tiered miss.
  EXPECT_FALSE(tiers.lookup(serve::RunKey{9, 9}, out));
  EXPECT_EQ(tiers.stats().misses, 1u);
  fs::remove_all(dir);
}

TEST(TieredCache, WritesThroughToEveryTier) {
  const fs::path dir = fresh_dir("tier_write");
  t1::FlowEngine engine;
  const t1::FlowParams params = fast_params();
  const Aig aig = gen::make_named("adder8");
  const serve::RunKey key = key_of(aig, params);
  const t1::EngineResult cold = engine.run(aig, params);
  ASSERT_TRUE(cold.ok());

  serve::TieredCache tiers({}, dir.string());
  tiers.store(key, cold);
  EXPECT_EQ(tiers.memory().stats().entries, 1u);
  EXPECT_EQ(tiers.disk()->stats().entries, 1u);

  // Failed results and inconclusive CEC verdicts are stored nowhere and
  // not counted.
  t1::EngineResult failed;
  failed.status = t1::FlowStatus::kNotEquivalent;
  tiers.store(serve::RunKey{5, 5}, failed);
  t1::EngineResult inconclusive = cold;
  inconclusive.cec = "unknown";
  tiers.store(serve::RunKey{6, 6}, inconclusive);
  EXPECT_EQ(tiers.stats().insertions, 1u);
  EXPECT_EQ(tiers.memory().stats().entries, 1u);
  EXPECT_EQ(tiers.disk()->stats().entries, 1u);

  // Without a directory there is no disk tier.
  serve::TieredCache memory_only({}, "");
  EXPECT_EQ(memory_only.disk(), nullptr);
  memory_only.store(key, cold);
  EXPECT_EQ(memory_only.stats().entries, 1u);
  fs::remove_all(dir);
}

TEST(TieredCache, HitsCarryNoReuseCountersInEitherTier) {
  const fs::path dir = fresh_dir("tier_reuse");
  const t1::FlowParams params = fast_params();
  const Aig aig = gen::make_named("adder8");
  const serve::RunKey key = key_of(aig, params);
  t1::FlowEngine engine;
  (void)engine.run(aig, params);
  const t1::EngineResult warm = engine.run(aig, params);  // memo hit
  ASSERT_TRUE(warm.ok());
  ASSERT_GT(warm.reuse.map_cones_reused, 0u);
  ASSERT_TRUE(warm.reuse.t1_exact);
  ASSERT_TRUE(warm.reuse.stage_spliced);

  // A hit ran no pass, whichever tier serves it.
  const auto expect_no_reuse = [&warm](const t1::EngineResult& hit,
                                       const std::string& tier) {
    expect_results_identical(warm, hit, tier);
    EXPECT_EQ(hit.reuse.map_cones_total, 0u) << tier;
    EXPECT_EQ(hit.reuse.map_cones_reused, 0u) << tier;
    EXPECT_EQ(hit.reuse.t1_cones_total, 0u) << tier;
    EXPECT_EQ(hit.reuse.t1_cones_reused, 0u) << tier;
    EXPECT_FALSE(hit.reuse.t1_exact) << tier;
    EXPECT_FALSE(hit.reuse.stage_spliced) << tier;
  };
  {
    serve::TieredCache tiers({}, dir.string());
    tiers.store(key, warm);
    t1::EngineResult hit;
    ASSERT_TRUE(tiers.lookup(key, hit));
    EXPECT_EQ(tiers.memory().stats().hits, 1u);
    expect_no_reuse(hit, "memory");
  }
  // A fresh cache on the same directory answers from disk.
  serve::TieredCache reopened({}, dir.string());
  t1::EngineResult hit;
  ASSERT_TRUE(reopened.lookup(key, hit));
  EXPECT_EQ(reopened.disk()->stats().hits, 1u);
  expect_no_reuse(hit, "disk");
  fs::remove_all(dir);
}

TEST(TieredCache, ConcurrentTwoTierHammering) {
  // 8 threads hammer lookup+store across both tiers; the TSan CI leg runs
  // this test to prove the composed locking sound.
  const fs::path dir = fresh_dir("tier_hammer");
  t1::FlowEngine engine;
  const t1::FlowParams params = fast_params();
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

  serve::TieredCache tiers({}, dir.string());

  constexpr int kThreads = 8;
  constexpr int kIters = 100;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t j = static_cast<std::size_t>(t + i) % keys.size();
        t1::EngineResult out;
        if (tiers.lookup(keys[j], out)) {
          if (out.stats.area_jj != results[j].stats.area_jj) {
            ++mismatches[t];
          }
        } else {
          tiers.store(keys[j], results[j]);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const int m : mismatches) EXPECT_EQ(m, 0);

  const serve::CacheStats c = tiers.stats();
  EXPECT_EQ(c.hits + c.misses,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_GT(c.hits, 0u);
  EXPECT_LE(tiers.disk()->stats().entries, names.size());

  // Everything the hammer stored is recoverable by a fresh disk tier.
  serve::DiskCacheConfig config;
  config.dir = dir.string();
  serve::DiskCache reopened(config);
  EXPECT_EQ(reopened.recovered_entries(), tiers.disk()->stats().entries);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace t1map
