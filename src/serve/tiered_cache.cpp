#include "serve/tiered_cache.hpp"

namespace t1map::serve {

TieredCache::TieredCache(CacheConfig memory, const std::string& disk_dir)
    : memory_(memory) {
  if (!disk_dir.empty()) {
    disk_ = std::make_unique<DiskCache>(DiskCacheConfig{disk_dir});
  }
}

bool TieredCache::lookup(const RunKey& key, t1::EngineResult& out) {
  bool hit = memory_.lookup(key, out);
  if (!hit && disk_ != nullptr && disk_->lookup(key, out)) {
    memory_.store(key, out);  // promote: the next lookup stops at memory
    hit = true;
  }
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return hit;
}

void TieredCache::store(const RunKey& key, const t1::EngineResult& result) {
  // A failed run carries partial state that must not masquerade as a
  // mapped design on a later hit, and an inconclusive CEC must not come
  // back as a hit that looks verified.
  if (!result.ok() || result.cec == "unknown") return;
  insertions_.fetch_add(1, std::memory_order_relaxed);
  memory_.store(key, result);
  if (disk_ != nullptr) disk_->store(key, result);
}

CacheStats TieredCache::stats() const {
  // Evictions and residency are per-tier facts; the composition reports
  // their totals (entries may count one key in both tiers — that is the
  // honest answer for "how much is resident").
  CacheStats s = memory_.stats();
  if (disk_ != nullptr) {
    const CacheStats d = disk_->stats();
    s.evictions += d.evictions;
    s.entries += d.entries;
    s.bytes += d.bytes;
  }
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace t1map::serve
