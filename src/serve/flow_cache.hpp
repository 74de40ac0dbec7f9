/// \file flow_cache.hpp
/// \brief Sharded, thread-safe in-memory LRU cache of mapped flow results
/// — the memory tier of the serving cache.
///
/// A `t1::RunCache` on its own, and the first tier of `TieredCache`:
/// keys are 128-bit `(AIG digest, configuration fingerprint)` values (see
/// aig_hash.hpp and `t1::params_fingerprint`), entries hold the complete
/// `EngineResult` — mapped netlist, materialized netlist, Table-I
/// statistics, diagnostics and the CEC verdict — so a hit reproduces a
/// cold `run` bit for bit (stage times and reuse counters excepted: a hit
/// runs no pass, so they are zeroed, see `t1::RunCache`).
///
/// Concurrency: the key space is split across `num_shards` independently
/// locked shards, so concurrent lookups/stores contend only when they land
/// on the same shard.  Memory: every entry is charged an estimated byte
/// size; each shard evicts from its LRU tail once its share of `max_bytes`
/// overflows.  Hit/miss/insertion/eviction counters are maintained per
/// shard and aggregated by `stats()`.
///
/// `CacheStats` and `RunKeyHash` live here too: the disk tier and the
/// tiered composition report and hash through them.

#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "t1/flow_engine.hpp"

namespace t1map::serve {

/// Point-in-time counters of one cache (a tier or the composition): what
/// the serve `stats` command and the CLI summary report.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;  // incl. rejected stores
  std::uint64_t entries = 0;    // resident entries
  std::uint64_t bytes = 0;      // resident (or on-log) bytes
};

/// `std::unordered_map` hasher of a `t1::RunKey`.  The key is already a
/// high-quality hash; this folds the halves.
struct RunKeyHash {
  std::size_t operator()(const t1::RunKey& k) const {
    return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9E3779B97F4A7C15ull));
  }
};

struct CacheConfig {
  /// Total byte budget across all shards (estimated entry sizes).
  std::size_t max_bytes = 256ull << 20;
  /// Shard count; rounded up to a power of two, minimum 1.
  int num_shards = 8;
};

/// Estimated resident size of a cached result in bytes (vectors, strings
/// and both netlists included).  An estimate, not an accounting audit —
/// the budget exists to bound memory, not to bill it exactly.
std::size_t estimate_result_bytes(const t1::EngineResult& result);

class FlowCache final : public t1::RunCache {
 public:
  explicit FlowCache(CacheConfig config = {});

  bool lookup(const t1::RunKey& key, t1::EngineResult& out) override;
  void store(const t1::RunKey& key, const t1::EngineResult& result) override;
  CacheStats stats() const;

  /// Resident entry count per shard — the `stats` command's occupancy
  /// report (a skewed distribution means a hot digest range).
  std::vector<std::uint64_t> shard_occupancy() const;

 private:
  struct Entry {
    t1::RunKey key;
    t1::EngineResult result;
    std::size_t bytes = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<t1::RunKey, std::list<Entry>::iterator, RunKeyHash>
        index;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  Shard& shard_for(const t1::RunKey& key) {
    return shards_[static_cast<std::size_t>(key.hi) & shard_mask_];
  }

  std::size_t shard_mask_;
  std::size_t shard_budget_;
  std::vector<Shard> shards_;
};

}  // namespace t1map::serve
