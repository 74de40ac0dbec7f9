#include "serve/flow_cache.hpp"

#include <algorithm>
#include <bit>
#include <string_view>
#include <utility>

#include "common/hash_mix.hpp"
#include "serve/result_codec.hpp"

namespace t1map::serve {

std::uint64_t config_fingerprint(const t1::FlowParams& params,
                                 bool with_cec) {
  // Every field that can change the mapped netlist, the reported
  // statistics, or a recorded check verdict takes part; adding a FlowParams
  // field without extending this list is the classic stale-cache bug, so
  // keep the two in lockstep.
  std::uint64_t h = 0xC4F1A9B2D6E85301ull;  // domain seed
  const auto absorb = [&h](std::uint64_t value) { h = mix64(h ^ value); };
  absorb(static_cast<std::uint64_t>(params.num_phases));
  absorb(params.use_t1 ? 1 : 0);
  absorb(params.optimize_stages ? 1 : 0);
  absorb(static_cast<std::uint64_t>(params.stage_sweeps));
  absorb(static_cast<std::uint64_t>(params.detect.cuts.k));
  absorb(static_cast<std::uint64_t>(params.detect.cuts.max_cuts));
  absorb(params.detect.allow_input_negation ? 1 : 0);
  absorb(static_cast<std::uint64_t>(params.detect.min_gain));
  absorb(static_cast<std::uint64_t>(params.mapper.cuts.k));
  absorb(static_cast<std::uint64_t>(params.mapper.cuts.max_cuts));
  absorb(static_cast<std::uint64_t>(params.verify_rounds));
  absorb(static_cast<std::uint64_t>(params.cec_conflict_limit));
  // A run with CEC records a verdict one without it does not, so the
  // pipeline's name folds in too (FNV-1a, as every stored key expects).
  std::uint64_t pipeline = 0xCBF29CE484222325ull;  // FNV-1a offset basis
  for (const char c : std::string_view(with_cec ? "cec" : "default")) {
    pipeline = (pipeline ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
  }
  return h ^ pipeline;
}

RunKey run_key(const Digest& digest, std::uint64_t config) {
  return RunKey{digest.hi ^ config,
                digest.lo ^ (config * 0x9E3779B97F4A7C15ull)};
}

namespace {

/// Heap bytes an `n`-byte allocation takes: one header word, rounded up to
/// 16 bytes.
constexpr std::size_t heap_block(std::size_t n) {
  return (n + sizeof(void*) + 15) / 16 * 16;
}

}  // namespace

std::size_t FlowCache::entry_bytes(const std::string& payload) {
  using Index = decltype(Shard::index);
  const std::size_t lru_node = sizeof(Entry) + 2 * sizeof(void*);
  const std::size_t index_node =  // next link, key and value, cached hash
      sizeof(void*) + sizeof(Index::value_type) + sizeof(std::size_t);
  const std::size_t buckets = 2 * sizeof(void*);
  const std::size_t payload_block =  // none while the string is inline
      payload.capacity() > std::string().capacity()
          ? heap_block(payload.capacity() + 1)
          : 0;
  return heap_block(lru_node) + heap_block(index_node) + buckets +
         payload_block;
}

std::size_t estimate_result_bytes(const t1::EngineResult& result) {
  std::string payload = encode_result(result);
  payload.shrink_to_fit();
  return FlowCache::entry_bytes(payload);
}

FlowCache::FlowCache(CacheConfig config)
    : shard_mask_(std::bit_ceil(static_cast<std::size_t>(
                      std::max(config.num_shards, 1))) -
                  1),
      shard_budget_(config.max_bytes / (shard_mask_ + 1)),
      shards_(shard_mask_ + 1) {}

bool FlowCache::lookup(const RunKey& key, t1::EngineResult& out) {
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  out = decode_result(it->second->payload);
  return true;
}

void FlowCache::store(const RunKey& key, const t1::EngineResult& result) {
  std::string payload = encode_result(result);
  payload.shrink_to_fit();  // appending left spare capacity on the heap
  const std::size_t bytes = entry_bytes(payload);

  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mu);
  if (const auto it = shard.index.find(key); it != shard.index.end()) {
    // Same key, same deterministic payload — just touch the LRU spot.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, std::move(payload), bytes});
  shard.index.emplace(key, shard.lru.begin());
  shard.bytes += bytes;
  ++shard.insertions;

  // Evict strictly from the cold tail.  A shard budget smaller than one
  // entry evicts everything including the new entry: it caches nothing.
  while (shard.bytes > shard_budget_ && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

CacheStats FlowCache::stats() const {
  CacheStats total;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    total.hits += shard.hits;
    total.misses += shard.misses;
    total.insertions += shard.insertions;
    total.evictions += shard.evictions;
    total.entries += shard.lru.size();
    total.bytes += shard.bytes;
  }
  return total;
}

std::vector<std::uint64_t> FlowCache::shard_occupancy() const {
  std::vector<std::uint64_t> occupancy(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::lock_guard<std::mutex> lock(shards_[i].mu);
    occupancy[i] = shards_[i].lru.size();
  }
  return occupancy;
}

}  // namespace t1map::serve
