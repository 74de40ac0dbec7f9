/// \file tiered_cache.hpp
/// \brief The serving cache: memory first, then an optional disk log.
///
/// `TieredCache` owns one `FlowCache` and, when given a directory, one
/// `DiskCache`.  Both keep one record per key, the result's
/// `encode_result` payload (status, CEC verdict and statistics; about 70
/// bytes), and never a netlist:
///
///   * `lookup` tries memory, then disk; a disk hit is *promoted* into
///     memory, so a result recovered after a restart is read from the log
///     once and served from memory thereafter.  A hit from either tier
///     fills `status`, `cec` and `stats` and leaves every other field at
///     its default: it ran no pass, so its `times` and `reuse` are zero;
///   * `store` is the one place that decides what may be cached, and
///     writes what it admits through to both tiers;
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

class TieredCache {
 public:
  /// A memory tier sized by `memory`, backed by a disk tier under
  /// `disk_dir` unless it is empty.  Throws `ContractError` when the
  /// directory is unusable (see `DiskCache`).
  TieredCache(CacheConfig memory, const std::string& disk_dir);

  /// Fills `out` and returns true when either tier holds `key`.
  bool lookup(const RunKey& key, t1::EngineResult& out);
  /// Caches a successful run whose CEC verdict is not "unknown"; drops
  /// (and does not count) any other result.
  void store(const RunKey& key, const t1::EngineResult& result);
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
