/// \file flow_cache.hpp
/// \brief Sharded, thread-safe in-memory LRU cache of flow results — the
/// memory tier of the serving cache.
///
/// The first tier of `TieredCache`: keys are 128-bit `RunKey`s (an AIG
/// digest folded with a configuration fingerprint), and an entry is its
/// key plus the result's `encode_result` payload: the status, the CEC
/// verdict and the Table-I statistics, the fields a serve response reads
/// (result_codec.hpp).  `store` encodes and `lookup` decodes, so a hit
/// fills those fields and leaves the netlists, diagnostics, stage times
/// and reuse counters at their defaults.  It stores whatever it is given;
/// `TieredCache::store` decides what may be cached.
///
/// Concurrency: the key space is split across `num_shards` independently
/// locked shards, so concurrent lookups/stores contend only when they land
/// on the same shard; a store encodes first and then locks its shard once.
/// Memory: every entry is charged the heap its storage takes, the LRU
/// node, the index node and buckets and the payload's block
/// (`estimate_result_bytes`); each shard evicts from its LRU tail once its
/// share of `max_bytes` overflows.  Hit/miss/insertion/eviction counters
/// are maintained per shard and aggregated by `stats()`.
///
/// The cache key (`RunKey` and its one recipe, `config_fingerprint` plus
/// `run_key`) and `CacheStats` live here too: the disk tier and the tiered
/// composition key, hash and report through them.

#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/aig_hash.hpp"
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

/// Cache address of one mapping problem: a source AIG under one
/// configuration.  Build it with `run_key`.
struct RunKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  friend bool operator==(const RunKey&, const RunKey&) = default;
};

/// `std::unordered_map` hasher of a `RunKey`.  The key is already a
/// high-quality hash; this folds the halves.
struct RunKeyHash {
  std::size_t operator()(const RunKey& k) const {
    return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9E3779B97F4A7C15ull));
  }
};

/// Platform-stable 64-bit fingerprint of a job's configuration: every
/// `FlowParams` field that influences the mapped result or its recorded
/// verdicts, and whether the pipeline runs SAT CEC.  Jobs with equal
/// fingerprints are interchangeable for caching.  Every key a disk tier
/// holds depends on this recipe, so changing it orphans those entries.
std::uint64_t config_fingerprint(const t1::FlowParams& params, bool with_cec);

/// The cache key of the AIG with structural digest `digest` (aig_hash.hpp)
/// under the configuration fingerprinted as `config`.
RunKey run_key(const Digest& digest, std::uint64_t config);

struct CacheConfig {
  /// Total byte budget across all shards (charged entry sizes).
  std::size_t max_bytes = 256ull << 20;
  /// Shard count; rounded up to a power of two, minimum 1.
  int num_shards = 8;
};

/// Bytes a memory entry of `result` is charged: the heap blocks storing
/// it takes, as a 16-byte-granular malloc with one header word sizes them
/// (glibc's on 64-bit hosts): its LRU node, its index node, two index
/// buckets (the index keeps between one and two per entry) and its
/// `encode_result` payload's block.  So `max_bytes` bounds the heap the
/// tier holds, not just the payloads in it.
std::size_t estimate_result_bytes(const t1::EngineResult& result);

class FlowCache {
 public:
  explicit FlowCache(CacheConfig config = {});

  /// Fills `out` and returns true when `key` is present.
  bool lookup(const RunKey& key, t1::EngineResult& out);
  /// Keeps the payload of `result` under `key`; a key already present
  /// keeps its entry.
  void store(const RunKey& key, const t1::EngineResult& result);
  CacheStats stats() const;

  /// Resident entry count per shard — the `stats` command's occupancy
  /// report (a skewed distribution means a hot digest range).
  std::vector<std::uint64_t> shard_occupancy() const;

 private:
  friend std::size_t estimate_result_bytes(  // reads entry_bytes
      const t1::EngineResult& result);

  struct Entry {
    RunKey key;
    std::string payload;    // `encode_result` bytes, capacity trimmed
    std::size_t bytes = 0;  // charged: entry_bytes(payload)
  };

  /// The charge of an entry holding `payload` (estimate_result_bytes).
  static std::size_t entry_bytes(const std::string& payload);

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<RunKey, std::list<Entry>::iterator, RunKeyHash>
        index;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  Shard& shard_for(const RunKey& key) {
    return shards_[static_cast<std::size_t>(key.hi) & shard_mask_];
  }

  std::size_t shard_mask_;
  std::size_t shard_budget_;
  std::vector<Shard> shards_;
};

}  // namespace t1map::serve
