#include "serve/disk_cache.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string_view>
#include <utility>

#include "common/require.hpp"
#include "serve/result_codec.hpp"

namespace t1map::serve {

namespace {

constexpr std::uint32_t kRecordsMagic = 0x54314352;  // "T1CR"
constexpr std::uint32_t kIndexMagic = 0x54314358;    // "T1CX"
constexpr std::uint64_t kHeaderBytes = 8;            // magic + version
constexpr std::uint32_t kRecordMagic = 0x52454352;   // "RECR"
constexpr std::uint64_t kRecordHeaderBytes = 32;
constexpr std::uint64_t kIndexEntryBytes = 28;

void put_u32(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

void put_u64(char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

/// Full write at an offset; EINTR-safe.  Returns false on I/O failure
/// (disk full, file-size limit), with `errno` set; a prefix may have landed.
bool pwrite_all(int fd, const char* data, std::size_t len,
                std::uint64_t offset) {
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, data, len, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    len -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

/// Full read at an offset; returns false on short read or I/O error (a
/// lookup failure, not a crash).
bool pread_all(int fd, char* data, std::size_t len, std::uint64_t offset) {
  while (len > 0) {
    const ssize_t n = ::pread(fd, data, len, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    len -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

/// Opens (creating if needed) a header-stamped cache file and validates or
/// writes the 8-byte header.  Returns the fd; `size` receives the file
/// size after any header fixup.
int open_cache_file(const std::string& path, std::uint32_t magic,
                    std::uint64_t& size) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  T1MAP_REQUIRE(fd >= 0, "cannot open cache file: " + path + ": " +
                             std::strerror(errno));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    T1MAP_REQUIRE(false, "cannot stat cache file: " + path);
  }
  size = static_cast<std::uint64_t>(st.st_size);
  if (size < kHeaderBytes) {
    // Fresh (or a file that died before its header landed): restamp.
    char header[kHeaderBytes];
    put_u32(header, magic);
    put_u32(header + 4, kResultCodecVersion);
    if (::ftruncate(fd, 0) != 0) { /* best effort; pwrite below rules */
    }
    if (!pwrite_all(fd, header, sizeof header, 0)) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      T1MAP_REQUIRE(false, "cannot write cache file: " + path + ": " + err);
    }
    size = kHeaderBytes;
    return fd;
  }
  char header[kHeaderBytes];
  if (!pread_all(fd, header, sizeof header, 0) || get_u32(header) != magic) {
    ::close(fd);
    T1MAP_REQUIRE(false, path + " is not a t1map cache file");
  }
  if (get_u32(header + 4) != kResultCodecVersion) {
    ::close(fd);
    T1MAP_REQUIRE(false, path + " was written by an incompatible cache "
                             "version; remove the directory to rebuild");
  }
  return fd;
}

}  // namespace

DiskCache::DiskCache(DiskCacheConfig config) : config_(std::move(config)) {
  T1MAP_REQUIRE(!config_.dir.empty(), "disk cache needs a directory");
  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  T1MAP_REQUIRE(!ec, "cannot create cache directory " + config_.dir + ": " +
                         ec.message());
  records_path_ = config_.dir + "/records.t1c";
  index_path_ = config_.dir + "/index.t1c";
  open_files();
  recover_index();
}

DiskCache::~DiskCache() {
  if (records_fd_ >= 0) ::close(records_fd_);
  if (index_fd_ >= 0) ::close(index_fd_);
}

void DiskCache::open_files() {
  records_fd_ = open_cache_file(records_path_, kRecordsMagic, records_size_);
  try {
    index_fd_ = open_cache_file(index_path_, kIndexMagic, index_size_);
  } catch (...) {
    ::close(records_fd_);
    records_fd_ = -1;
    throw;
  }
}

void DiskCache::recover_index() {
  // Replay the mmap'd index: entries are valid up to the first one that
  // points past the end of the record log (crash between record append
  // and index append) or a partial trailing entry (crash mid-entry).
  std::uint64_t usable = 0;
  if (index_size_ > kHeaderBytes) {
    usable = (index_size_ - kHeaderBytes) / kIndexEntryBytes;
  }
  std::uint64_t valid = 0;
  std::uint64_t data_end = kHeaderBytes;
  if (usable > 0) {
    const std::size_t map_len = static_cast<std::size_t>(index_size_);
    void* map = ::mmap(nullptr, map_len, PROT_READ, MAP_PRIVATE, index_fd_, 0);
    T1MAP_REQUIRE(map != MAP_FAILED,
                  "cannot mmap cache index: " + index_path_);
    const char* base = static_cast<const char*>(map) + kHeaderBytes;
    for (std::uint64_t i = 0; i < usable; ++i) {
      const char* e = base + i * kIndexEntryBytes;
      t1::RunKey key{get_u64(e), get_u64(e + 8)};
      const std::uint64_t offset = get_u64(e + 16);
      const std::uint32_t len = get_u32(e + 24);
      // Subtraction form: immune to offset+len overflow from garbage.
      if (offset < kHeaderBytes || offset > records_size_ ||
          records_size_ - offset < kRecordHeaderBytes + len) {
        break;  // torn tail
      }
      index_[key] = Loc{offset, len};
      data_end = std::max(data_end, offset + kRecordHeaderBytes + len);
      ++valid;
    }
    ::munmap(map, map_len);
  }

  // Truncate both files back to their last consistent prefix.
  const std::uint64_t index_end = kHeaderBytes + valid * kIndexEntryBytes;
  if (index_end < index_size_) {
    truncated_ += index_size_ - index_end;
    if (::ftruncate(index_fd_, static_cast<off_t>(index_end)) == 0) {
      index_size_ = index_end;
    }
  }
  if (data_end < records_size_) {
    truncated_ += records_size_ - data_end;
    if (::ftruncate(records_fd_, static_cast<off_t>(data_end)) == 0) {
      records_size_ = data_end;
    }
  }
  recovered_ = index_.size();
}

bool DiskCache::lookup(const t1::RunKey& key, t1::EngineResult& out) {
  Loc loc;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    loc = it->second;
  }

  // Records are immutable once indexed: read + decode outside the lock.
  std::string record(kRecordHeaderBytes + loc.payload_len, '\0');
  bool ok = pread_all(records_fd_, record.data(), record.size(), loc.offset);
  if (ok) {
    const char* h = record.data();
    ok = get_u32(h) == kRecordMagic && get_u32(h + 4) == loc.payload_len &&
         get_u64(h + 8) == key.hi && get_u64(h + 16) == key.lo;
  }
  if (ok) {
    const std::string_view payload(record.data() + kRecordHeaderBytes,
                                   loc.payload_len);
    ok = payload_checksum(payload) == get_u64(record.data() + 24);
    if (ok) {
      try {
        out = decode_result(payload);
      } catch (const ContractError&) {
        ok = false;
      }
    }
  }
  if (!ok) {
    // Heal: drop the bad entry so the next store can rewrite it.
    const std::lock_guard<std::mutex> lock(mu_);
    index_.erase(key);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void DiskCache::store(const t1::RunKey& key, const t1::EngineResult& result) {
  if (!result.ok()) return;  // failed runs carry partial state
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (index_.count(key) != 0) return;  // first write wins; results agree
  }

  // Serialize outside the lock; append under it.
  const std::string payload = encode_result(result);
  std::string record(kRecordHeaderBytes, '\0');
  put_u32(record.data(), kRecordMagic);
  put_u32(record.data() + 4, static_cast<std::uint32_t>(payload.size()));
  put_u64(record.data() + 8, key.hi);
  put_u64(record.data() + 16, key.lo);
  put_u64(record.data() + 24, payload_checksum(payload));
  record += payload;

  const std::lock_guard<std::mutex> lock(mu_);
  if (index_.count(key) != 0) return;  // raced with another store
  if (config_.max_bytes != 0 &&
      records_size_ + record.size() > config_.max_bytes) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t offset = records_size_;
  if (!pwrite_all(records_fd_, record.data(), record.size(), offset)) {
    // Rejected like a store into a full log; the torn bytes lie past the
    // committed end, where the next store or recovery discards them.
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (config_.fsync_stores) ::fsync(records_fd_);

  // The index entry is the commit point — written (and synced) after the
  // record so recovery never indexes a torn record.
  char entry[kIndexEntryBytes];
  put_u64(entry, key.hi);
  put_u64(entry + 8, key.lo);
  put_u64(entry + 16, offset);
  put_u32(entry + 24, static_cast<std::uint32_t>(payload.size()));
  if (!pwrite_all(index_fd_, entry, sizeof entry, index_size_)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (config_.fsync_stores) ::fsync(index_fd_);

  records_size_ += record.size();
  index_size_ += sizeof entry;
  index_[key] = Loc{offset, static_cast<std::uint32_t>(payload.size())};
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

CacheStats DiskCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = rejected_.load(std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mu_);
  s.entries = index_.size();
  s.bytes = records_size_;
  return s;
}

}  // namespace t1map::serve
