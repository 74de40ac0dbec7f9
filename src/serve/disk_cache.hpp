/// \file disk_cache.hpp
/// \brief Disk-backed, log-structured flow-result store — the persistent
/// second cache tier behind `--cache-dir`.
///
/// Layout (two files in the cache directory):
///
///   records.t1c   append-only record log.  8-byte header (magic,
///                 version), then back-to-back records:
///                 [magic u32][payload_len u32][key.hi u64][key.lo u64]
///                 [checksum u64][payload bytes]
///                 where the payload is `encode_result` output and the
///                 checksum is `payload_checksum` over it.
///   index.t1c     append-only entry list mirroring the log.  8-byte
///                 header, then 28-byte entries:
///                 [key.hi u64][key.lo u64][offset u64][payload_len u32]
///                 On boot it is mmap'd and replayed to rebuild the
///                 in-memory key → offset table without touching a single
///                 payload byte — warm start is O(entries), not O(bytes).
///
/// Crash tolerance: a record is committed by its *index entry* (written
/// after the record).  Recovery drops any index tail that points past the
/// end of the log (crash mid-record or mid-entry), truncates both files
/// back to their last consistent prefix, and carries on.  A store whose
/// write fails (disk full, file-size limit) is rejected like one into a
/// full log: neither file's committed size advances, and the next store
/// overwrites the torn bytes.  Checksums are
/// verified on every lookup; a corrupt record is dropped from the index
/// and reported as a miss — the cache heals rather than serves garbage.
///
/// Keys are the platform-stable 128-bit digest × params fingerprints, so a
/// cache directory written by one build/host warm-starts any other.
///
/// Thread safety: the index map and the append path are mutex-guarded;
/// record reads go through `pread` on immutable log regions, so concurrent
/// lookups proceed without serializing on the file position.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "serve/flow_cache.hpp"

namespace t1map::serve {

struct DiskCacheConfig {
  /// Cache directory; created (with parents) when missing.
  std::string dir;
  /// Log size cap in bytes; 0 = unbounded.  The log is append-only, so a
  /// full cache rejects new stores (counted as evictions) instead of
  /// rewriting history.
  std::size_t max_bytes = 0;
  /// fsync record and index after every store.  Off by default: the log
  /// is a cache, and recovery already tolerates a torn tail.
  bool fsync_stores = false;
};

/// The second tier of `TieredCache`.
class DiskCache {
 public:
  /// Opens (or creates) the store and recovers the index.  Throws
  /// `ContractError` when the directory is unusable or holds an
  /// incompatible cache.
  explicit DiskCache(DiskCacheConfig config);
  ~DiskCache();

  DiskCache(const DiskCache&) = delete;
  DiskCache& operator=(const DiskCache&) = delete;

  /// Fills `out` and returns true when `key` has a sound record.
  bool lookup(const t1::RunKey& key, t1::EngineResult& out);
  /// Appends a successful result; a failed write rejects the store.
  void store(const t1::RunKey& key, const t1::EngineResult& result);
  CacheStats stats() const;

  /// Entries recovered by the warm-start scan of the boot.
  std::uint64_t recovered_entries() const { return recovered_; }
  /// Bytes truncated from the two files during crash recovery.
  std::uint64_t recovered_truncated_bytes() const { return truncated_; }

 private:
  struct Loc {
    std::uint64_t offset = 0;  // of the record header in the log
    std::uint32_t payload_len = 0;
  };

  void open_files();
  void recover_index();

  DiskCacheConfig config_;
  std::string records_path_;
  std::string index_path_;
  int records_fd_ = -1;
  int index_fd_ = -1;

  mutable std::mutex mu_;  // index map + append path
  std::unordered_map<t1::RunKey, Loc, RunKeyHash> index_;
  std::uint64_t records_size_ = 0;
  std::uint64_t index_size_ = 0;

  std::uint64_t recovered_ = 0;
  std::uint64_t truncated_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> rejected_{0};  // full, failed or corrupt
};

}  // namespace t1map::serve
