/// \file tiered_cache.hpp
/// \brief The serving cache: memory first, then an optional disk log.
///
/// `TieredCache` owns one `FlowCache` and, when given a directory, one
/// `DiskCache`:
///
///   * `lookup` tries memory, then disk; a disk hit is *promoted* into
///     memory, so a result recovered after a restart pays the decode once
///     and is served from memory thereafter;
///   * `store` writes through to both;
///   * `stats` reports the composition's own lookup/store outcomes (a hit
///     in either tier is one hit; a miss means both missed) plus the
///     tiers' resident totals.  Each tier's counters stay available
///     through `memory()` and `disk()`.
///
/// Thread safety: both tiers are fully thread-safe and the composition
/// adds only atomic counters, so any number of serve sessions may share
/// one instance.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/disk_cache.hpp"
#include "serve/flow_cache.hpp"
#include "t1/flow_engine.hpp"

namespace t1map::serve {

class TieredCache final : public t1::RunCache {
 public:
  /// A memory tier sized by `memory`, backed by a disk tier under
  /// `disk_dir` unless it is empty.  Throws `ContractError` when the
  /// directory is unusable (see `DiskCache`).
  TieredCache(CacheConfig memory, const std::string& disk_dir);

  bool lookup(const t1::RunKey& key, t1::EngineResult& out) override;
  void store(const t1::RunKey& key, const t1::EngineResult& result) override;
  CacheStats stats() const;

  const FlowCache& memory() const { return memory_; }
  /// The disk tier, or nullptr without a directory.
  const DiskCache* disk() const { return disk_.get(); }

 private:
  FlowCache memory_;
  std::unique_ptr<DiskCache> disk_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
};

}  // namespace t1map::serve
