/// \file server.hpp
/// \brief JSONL batch-serving core over `FlowEngine` + the tiered cache.
///
/// Protocol (one JSON object per line in, one per line out, responses in
/// request order per connection):
///
///   request  := flow-job | command
///   flow-job := {"id": any, "gen": NAME | "blif": TEXT | "aiger": TEXT,
///                "config": "1phi"|"nphi"|"t1", "phases": N,
///                "verify_rounds": N, "cec": BOOL}   (all but the circuit
///                                                    field optional)
///   The "aiger" field carries an inline ASCII (`aag`) AIGER payload;
///   convert binary files with `t1map --input f.aig --export-aiger f.aag`.
///   command  := {"id": any, "cmd": "stats" | "quit"}
///
/// Responses:
///
///   ok   := {"id", "ok": true, "design", "cached", "status": "ok",
///            "cec", "input": {pis,pos,ands}, "stats": {Table-I block},
///            "ms": flow-compute milliseconds (0 on a cache hit)}
///   fail := {"id", "ok": false, "error", ...}         (bad request or a
///                                                      failed check pass)
///
/// Execution model: the server accepts connections from a `Transport` and
/// runs one session thread per connection.  Each session reads requests in
/// batches (up to `ServeConfig::batch_size` lines), hashes them
/// (`AigHasher`), groups them by configuration fingerprint and looks every
/// job up in the cache.  Per group, the first miss of each key runs in one
/// `FlowEngine::run_many` on the engine's `threads` persistent workers; a
/// duplicate within the batch computes nothing and is looked up again once
/// its first occurrence is stored.  A session ends when a batch's
/// responses cannot be flushed.  Sessions share one `TieredCache`
/// (in-memory `FlowCache`, optionally backed by a persistent `DiskCache`
/// under `cache_dir`), so any client's cold run is every client's warm hit
/// — across server restarts when the disk tier is on.  Everything except
/// the timing fields is deterministic: a given request script produces
/// byte-identical responses regardless of worker count or transport.
///
/// Shutdown: a `quit` command (or `Transport::shutdown()`, e.g. from a
/// SIGTERM handler) stops the accept loop and asks every session to
/// finish its current batch; sessions still running after
/// `drain_timeout_ms` have their connections aborted.

#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "serve/aig_hash.hpp"
#include "serve/histogram.hpp"
#include "serve/tiered_cache.hpp"
#include "serve/transport.hpp"
#include "t1/flow_engine.hpp"

namespace t1map::serve {

/// Per-request defaults applied when a flow-job omits the field.  Shared
/// by the server and the CLI so "what does an empty request mean" has one
/// definition.
struct JobDefaults {
  int phases = 4;
  int verify_rounds = 8;
  bool cec = true;
};

struct ServeConfig {
  /// Worker threads of each session's `FlowEngine`, which computes the
  /// cache misses of a batch (`FlowEngine::run_many`).
  int threads = 1;
  /// Maximum requests pulled into one dispatch batch.
  int batch_size = 16;
  JobDefaults defaults;
  /// Memory tier sizing.
  CacheConfig cache;
  /// Non-empty: directory for the persistent disk tier (created when
  /// missing, recovered on boot).
  std::string cache_dir;
  /// How long shutdown waits for in-flight batches before aborting their
  /// connections.
  int drain_timeout_ms = 5000;
};

struct ServeCounters {
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;    // delivered: their batch flushed
  std::uint64_t undelivered = 0;  // responses whose flush failed
  std::uint64_t errors = 0;  // malformed / rejected requests among them
  std::uint64_t batches = 0;
  std::uint64_t connections = 0;
};

class Server {
 public:
  explicit Server(ServeConfig config = {});

  /// Accepts connections from `transport` and serves each on its own
  /// thread until a `quit` command or `transport.shutdown()`, then drains.
  /// Returns the total number of responses delivered.
  std::uint64_t serve(Transport& transport);

  /// Single-session convenience over the historical stream pair: reads
  /// JSONL requests from `in` until EOF or `quit`, writing one response
  /// line per request to `out` (flushed per batch).  Blank lines are
  /// ignored.
  std::uint64_t serve(std::istream& in, std::ostream& out);

  /// The disk tier, or nullptr when no `cache_dir` was configured.
  const DiskCache* disk_tier() const { return cache_.disk(); }

  ServeCounters counters() const;

  /// One-line human summary of the session (requests, hit rate, bytes) for
  /// the CLI's stderr epilogue.
  std::string summary() const;

 private:
  struct Job;
  struct SessionState;

  Job parse_request(const std::string& line, std::uint64_t seq,
                    AigHasher& hasher) const;
  void process_batch(t1::FlowEngine& engine, std::vector<Job>& batch);
  void write_response(Connection& conn, const Job& job);
  void run_session(Connection& conn, Transport& transport);

  ServeConfig config_;
  TieredCache cache_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::uint64_t> undelivered_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> connections_{0};

  // Pass-memo reuse, accumulated over every computed (non-cached) flow run;
  // the `stats` response reports them with hit rates.  A group whose misses
  // run on worker 0 alone (one thread, or one miss) may reuse whole pass
  // results from the session engine's memo; misses spread over several
  // workers run cold and add to the totals only.
  std::atomic<std::uint64_t> inc_flow_runs_{0};
  std::atomic<std::uint64_t> inc_map_total_{0};
  std::atomic<std::uint64_t> inc_map_reused_{0};
  std::atomic<std::uint64_t> inc_t1_total_{0};
  std::atomic<std::uint64_t> inc_t1_reused_{0};
  std::atomic<std::uint64_t> inc_t1_exact_{0};
  std::atomic<std::uint64_t> inc_stage_spliced_{0};

  /// Per-config latency histograms ("1phi"/"nphi"/"t1"), one sample per
  /// flow job: its own cache lookups plus its own flow run.  Merged across
  /// sessions; guarded because sessions record concurrently.
  mutable std::mutex latency_mu_;
  std::map<std::string, LatencyHistogram> latency_;
};

}  // namespace t1map::serve
