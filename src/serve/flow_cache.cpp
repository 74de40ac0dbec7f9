#include "serve/flow_cache.hpp"

#include <algorithm>
#include <bit>
#include <string_view>
#include <utility>

#include "common/hash_mix.hpp"

namespace t1map::serve {

namespace {

std::size_t netlist_bytes(const sfq::Netlist& ntk) {
  std::size_t bytes = sizeof(sfq::Netlist);
  bytes += ntk.num_nodes() * sizeof(sfq::Netlist::Node);
  bytes += ntk.num_pis() * sizeof(std::uint32_t);
  for (std::uint32_t i = 0; i < ntk.num_pis(); ++i) {
    bytes += sizeof(std::string) + ntk.pi_name(i).size();
  }
  for (const sfq::Netlist::Po& po : ntk.pos()) {
    bytes += sizeof(sfq::Netlist::Po) + po.name.size();
  }
  return bytes;
}

}  // namespace

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

std::size_t estimate_result_bytes(const t1::EngineResult& result) {
  std::size_t bytes = sizeof(t1::EngineResult);
  bytes += netlist_bytes(result.mapped);
  bytes += netlist_bytes(result.materialized.netlist);
  bytes += result.materialized.stages.sigma.size() * sizeof(int);
  bytes += result.materialized.node_map.size() * sizeof(std::uint32_t);
  bytes += result.cec.size();
  for (const t1::Diagnostic& d : result.diagnostics.entries()) {
    bytes += sizeof(t1::Diagnostic) + d.pass.size() + d.message.size();
  }
  return bytes;
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
  out = it->second->result;
  return true;
}

void FlowCache::store(const RunKey& key, const t1::EngineResult& result) {
  Shard& shard = shard_for(key);
  {
    // Duplicate stores (several threads missed, all computed) are common
    // under contention; detect them before paying the deep result copy.
    const std::lock_guard<std::mutex> lock(shard.mu);
    if (const auto it = shard.index.find(key); it != shard.index.end()) {
      // Same key, same deterministic payload — just touch the LRU spot.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
  }

  Entry entry;  // the deep copy happens outside the shard lock
  entry.key = key;
  entry.result = result;
  // A hit runs no pass: the computing run's stage times and memo reuse
  // would read as a (wrong) measurement of the hit.
  entry.result.times = t1::StageTimes{};
  entry.result.reuse = t1::ReuseCounters{};
  entry.bytes = estimate_result_bytes(entry.result);

  const std::lock_guard<std::mutex> lock(shard.mu);
  if (const auto it = shard.index.find(key); it != shard.index.end()) {
    // Raced with another store of the same key between the two lockings.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(std::move(entry));
  shard.index.emplace(key, shard.lru.begin());
  shard.bytes += shard.lru.front().bytes;
  ++shard.insertions;

  // Evict strictly from the cold tail.  An entry larger than the whole
  // shard budget evicts everything including itself: oversized results
  // simply don't cache.
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
