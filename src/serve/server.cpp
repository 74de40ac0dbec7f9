#include "serve/server.hpp"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/require.hpp"
#include "gen/registry.hpp"
#include "io/aiger.hpp"
#include "io/blif.hpp"
#include "io/json.hpp"
#include "serve/json_out.hpp"

namespace t1map::serve {

namespace {

/// Every key a request may carry; anything else is a typo worth rejecting
/// loudly rather than silently ignoring.
constexpr const char* kKnownFields[] = {
    "cmd",    "id",     "gen", "blif", "aiger",
    "config", "phases", "verify_rounds", "cec",
};

bool known_field(const std::string& name) {
  for (const char* field : kKnownFields) {
    if (name == field) return true;
  }
  return false;
}

/// Reads an integral number field with range validation.
int int_field(const io::Json& request, const char* name, int fallback, int lo,
              int hi) {
  const io::Json* field = request.find(name);
  if (field == nullptr) return fallback;
  T1MAP_REQUIRE(field->is_number(), std::string(name) + " must be a number");
  const double value = field->as_number();
  T1MAP_REQUIRE(value == std::floor(value) && value >= lo && value <= hi,
                std::string(name) + " must be an integer in [" +
                    std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return static_cast<int>(value);
}

void write_cache_stats_fields(io::JsonWriter& w, const CacheStats& c) {
  w.key("hits").value(c.hits).key("misses").value(c.misses);
  w.key("insertions").value(c.insertions);
  w.key("evictions").value(c.evictions);
  w.key("entries").value(c.entries).key("bytes").value(c.bytes);
}

}  // namespace

/// One request through its whole lifecycle: parse → hash → dispatch →
/// response fields.
struct Server::Job {
  io::Json id;  // echoed verbatim
  std::string cmd;
  std::string error;  // non-empty: error response, nothing dispatched
  std::string design;
  std::string config_name = "t1";  // latency-histogram key
  Aig aig;
  t1::FlowParams params;
  bool with_cec = true;
  std::uint64_t group = 0;  // `config_fingerprint`: one dispatch per group
  RunKey key;
  bool cached = false;
  t1::EngineResult result;
  double cost_ms = 0.0;  // its latency sample: own lookups + own flow run
};

/// Bookkeeping for one connection's session thread, shared with the
/// accept/drain loop.
struct Server::SessionState {
  std::unique_ptr<Connection> conn;
  std::thread thread;
  std::atomic<bool> done{false};
};

Server::Server(ServeConfig config)
    : config_(std::move(config)), cache_(config_.cache, config_.cache_dir) {}

Server::Job Server::parse_request(const std::string& line, std::uint64_t seq,
                                  AigHasher& hasher) const {
  Job job;
  job.id = io::Json(static_cast<double>(seq));
  io::Json request;
  try {
    request = io::Json::parse(line);
  } catch (const ContractError& e) {
    job.error = std::string("malformed JSON: ") + e.what();
    return job;
  }

  const JobDefaults& defaults = config_.defaults;
  try {
    T1MAP_REQUIRE(request.is_object(), "request must be a JSON object");
    for (const auto& [name, value] : request.members()) {
      T1MAP_REQUIRE(known_field(name), "unknown field '" + name + "'");
    }
    if (const io::Json* id = request.find("id")) job.id = *id;

    if (const io::Json* cmd = request.find("cmd")) {
      job.cmd = cmd->as_string();
      T1MAP_REQUIRE(job.cmd == "stats" || job.cmd == "quit",
                    "unknown cmd '" + job.cmd + "' (stats|quit)");
      // A command carrying job fields is almost certainly two requests
      // accidentally merged; dropping the job silently would lose work.
      for (const char* field :
           {"gen", "blif", "aiger", "config", "phases", "verify_rounds",
            "cec"}) {
        T1MAP_REQUIRE(request.find(field) == nullptr,
                      "cmd '" + job.cmd + "' does not take the job field '" +
                          field + "'");
      }
      return job;
    }

    const io::Json* gen = request.find("gen");
    const io::Json* blif = request.find("blif");
    const io::Json* aiger = request.find("aiger");
    T1MAP_REQUIRE((gen != nullptr) + (blif != nullptr) + (aiger != nullptr) ==
                      1,
                  "exactly one of 'gen', 'blif' or 'aiger' is required");
    if (gen != nullptr) {
      job.design = gen->as_string();
      job.aig = gen::make_named(job.design);
    } else if (aiger != nullptr) {
      // Inline ASCII AIGER payload (JSON strings cannot carry the binary
      // variant's raw bytes; clients convert with --export-aiger first).
      job.aig = io::read_aiger_string(aiger->as_string());
      job.design = "aiger";
    } else {
      std::istringstream text(blif->as_string());
      std::string model_name;
      job.aig = io::read_blif(text, &model_name);
      job.design = model_name;
    }

    std::string config = "t1";
    if (const io::Json* c = request.find("config")) config = c->as_string();
    T1MAP_REQUIRE(config == "1phi" || config == "nphi" || config == "t1",
                  "config must be one of 1phi|nphi|t1, got '" + config + "'");
    job.config_name = config;
    // The phases field is validated whenever present — config 1phi pins
    // the value, it does not exempt the request from type checking.
    const int phases = int_field(request, "phases", defaults.phases, 1, 64);
    if (config == "1phi") {
      T1MAP_REQUIRE(request.find("phases") == nullptr || phases == 1,
                    "config 1phi is single-phase; it conflicts with phases " +
                        std::to_string(phases));
    }
    job.params = t1::table_params(config == "1phi"   ? t1::TableConfig::k1phi
                                  : config == "nphi" ? t1::TableConfig::kNphi
                                                     : t1::TableConfig::kT1,
                                  phases);
    job.params.verify_rounds = int_field(request, "verify_rounds",
                                         defaults.verify_rounds, 0, 1 << 20);
    job.with_cec = defaults.cec;
    if (const io::Json* cec = request.find("cec")) {
      job.with_cec = cec->as_bool();
    }
  } catch (const ContractError& e) {
    job.error = e.what();
    return job;
  }

  job.group = config_fingerprint(job.params, job.with_cec);
  job.key = run_key(hasher.hash(job.aig), job.group);
  return job;
}

void Server::process_batch(t1::FlowEngine& engine, std::vector<Job>& batch) {
  // Flow jobs by configuration, groups in order of first appearance; each
  // group is one engine dispatch.
  std::vector<std::vector<std::size_t>> groups;
  std::unordered_map<std::uint64_t, std::size_t> group_index;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!batch[i].error.empty() || !batch[i].cmd.empty()) continue;
    const auto [it, fresh] =
        group_index.emplace(batch[i].group, groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(i);
  }

  // Each job's latency sample is its own cost: its cache lookups, plus
  // its flow run when it computed one.
  const auto lookup = [this](Job& job) {
    const auto start = std::chrono::steady_clock::now();
    const bool hit = cache_.lookup(job.key, job.result);
    job.cost_ms += std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    return hit;
  };

  for (const std::vector<std::size_t>& members : groups) {
    const Job& first = batch[members.front()];
    engine.set_pipeline(t1::Pipeline::default_flow(first.with_cec));
    // Every member is looked up; the first miss of each key computes.  A
    // later miss of that key (an in-batch duplicate) is looked up again
    // once the first is stored, so it counts one miss, then one hit.
    std::unordered_map<RunKey, std::size_t, RunKeyHash> first_miss;
    std::vector<std::size_t> misses;
    std::vector<std::size_t> duplicates;
    std::vector<t1::FlowJob> jobs;
    for (const std::size_t i : members) {
      Job& job = batch[i];
      if (lookup(job)) {
        job.cached = true;
      } else if (first_miss.emplace(job.key, i).second) {
        misses.push_back(i);
        jobs.push_back({&job.aig, job.params});
      } else {
        duplicates.push_back(i);
      }
    }
    std::vector<t1::EngineResult> results = engine.run_many(jobs);
    for (std::size_t m = 0; m < misses.size(); ++m) {
      Job& job = batch[misses[m]];
      job.result = std::move(results[m]);
      job.cost_ms += 1e3 * job.result.times.total_wall;
      cache_.store(job.key, job.result);
      // Only computed ok-runs count, so the reported hit rates cover
      // actual flow executions.
      if (!job.result.ok()) continue;
      const t1::ReuseCounters& r = job.result.reuse;
      inc_flow_runs_.fetch_add(1, std::memory_order_relaxed);
      inc_map_total_.fetch_add(r.map_cones_total, std::memory_order_relaxed);
      inc_map_reused_.fetch_add(r.map_cones_reused,
                                std::memory_order_relaxed);
      inc_t1_total_.fetch_add(r.t1_cones_total, std::memory_order_relaxed);
      inc_t1_reused_.fetch_add(r.t1_cones_reused, std::memory_order_relaxed);
      if (r.t1_exact) inc_t1_exact_.fetch_add(1, std::memory_order_relaxed);
      if (r.stage_spliced) {
        inc_stage_spliced_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    for (const std::size_t i : duplicates) {
      Job& job = batch[i];
      job.cached = lookup(job);
      // The first occurrence's result was not cacheable: copy it.  Like a
      // hit, the copy ran no pass, so it carries no stage times or reuse.
      if (!job.cached) {
        job.result = batch[first_miss.at(job.key)].result;
        job.result.times = t1::StageTimes{};
        job.result.reuse = t1::ReuseCounters{};
      }
    }
    const std::lock_guard<std::mutex> lock(latency_mu_);
    LatencyHistogram& hist = latency_[first.config_name];
    for (const std::size_t i : members) hist.record_ms(batch[i].cost_ms);
  }
}

void Server::write_response(Connection& conn, const Job& job) {
  std::ostringstream os;
  io::JsonWriter w(os);
  w.begin_object().key("id").value(job.id);

  if (!job.error.empty()) {
    w.key("ok").value(false).key("error").value(job.error);
    w.end_object();
  } else if (job.cmd == "stats") {
    w.key("ok").value(true);
    w.key("serve").begin_object();
    w.key("requests").value(requests_.load(std::memory_order_relaxed));
    w.key("batches").value(batches_.load(std::memory_order_relaxed));
    w.key("errors").value(errors_.load(std::memory_order_relaxed));
    w.key("connections").value(connections_.load(std::memory_order_relaxed));

    w.key("cache").begin_object();
    write_cache_stats_fields(w, cache_.stats());
    w.key("tiers").begin_array();
    w.begin_object().key("name").value("memory");
    write_cache_stats_fields(w, cache_.memory().stats());
    w.key("shards").begin_array();
    for (const std::uint64_t n : cache_.memory().shard_occupancy()) w.value(n);
    w.end_array().end_object();
    if (const DiskCache* disk = cache_.disk()) {
      w.begin_object().key("name").value("disk");
      write_cache_stats_fields(w, disk->stats());
      w.key("recovered_entries").value(disk->recovered_entries());
      w.key("recovered_truncated_bytes")
          .value(disk->recovered_truncated_bytes());
      w.end_object();
    }
    w.end_array().end_object();

    {
      // Pass-memo reuse over computed flow runs.
      const std::uint64_t map_total =
          inc_map_total_.load(std::memory_order_relaxed);
      const std::uint64_t map_reused =
          inc_map_reused_.load(std::memory_order_relaxed);
      const std::uint64_t t1_total =
          inc_t1_total_.load(std::memory_order_relaxed);
      const std::uint64_t t1_reused =
          inc_t1_reused_.load(std::memory_order_relaxed);
      w.key("incremental").begin_object();
      w.key("flow_runs").value(
          inc_flow_runs_.load(std::memory_order_relaxed));
      w.key("map_cones_total").value(map_total);
      w.key("map_cones_reused").value(map_reused);
      w.key("map_hit_rate")
          .value(map_total > 0 ? static_cast<double>(map_reused) /
                                     static_cast<double>(map_total)
                               : 0.0);
      w.key("t1_cones_total").value(t1_total);
      w.key("t1_cones_reused").value(t1_reused);
      w.key("t1_hit_rate")
          .value(t1_total > 0 ? static_cast<double>(t1_reused) /
                                    static_cast<double>(t1_total)
                              : 0.0);
      w.key("t1_exact_hits").value(
          inc_t1_exact_.load(std::memory_order_relaxed));
      w.key("stage_splice_hits").value(
          inc_stage_spliced_.load(std::memory_order_relaxed));
      w.end_object();
    }

    {
      const std::lock_guard<std::mutex> lock(latency_mu_);
      w.key("latency").begin_object();
      for (const auto& [config, hist] : latency_) {
        w.key(config).value(hist.to_json());
      }
      w.end_object();
    }
    w.end_object().end_object();
  } else if (job.cmd == "quit") {
    w.key("ok").value(true).key("quit").value(true);
    w.end_object();
  } else if (!job.result.ok()) {
    w.key("ok").value(false).key("design").value(job.design);
    w.key("status").value(t1::flow_status_name(job.result.status));
    w.key("error").value(job.result.diagnostics.first_error());
    w.end_object();
  } else {
    w.key("ok").value(true).key("design").value(job.design);
    w.key("cached").value(job.cached);
    w.key("status").value("ok").key("cec").value(job.result.cec);
    w.key("input").value(aig_input_json(job.aig, /*with_depth=*/false));
    w.key("stats").value(flow_stats_json(job.result.stats));
    // Flow compute time, as the latency histogram counts it; a cache hit
    // costs none (stored times are zeroed), so this is the only response
    // field that varies between sessions.
    w.key("ms").value(1e3 * job.result.times.total_wall);
    w.end_object();
  }
  os << '\n';
  conn.write(os.str());
}

void Server::run_session(Connection& conn, Transport& transport) {
  // Each session owns its engine (pipeline state, workers and pass memo
  // are per-session) and hasher; the cache and the counters are the shared
  // state.
  t1::FlowEngine engine;
  engine.set_threads(config_.threads);
  AigHasher hasher;
  connections_.fetch_add(1, std::memory_order_relaxed);

  std::string line;
  bool quit = false;
  bool closed = false;
  while (!quit && !closed) {
    std::vector<Job> batch;
    while (static_cast<int>(batch.size()) < config_.batch_size) {
      // The first read blocks (waiting for work); once the batch is
      // non-empty, only lines already buffered are pulled in, so a
      // synchronous client that awaits each response before sending the
      // next request is answered immediately instead of deadlocking on an
      // unfilled batch.
      const ReadResult rr = conn.read_line(line, /*wait=*/batch.empty());
      if (rr == ReadResult::kIdle) break;
      if (rr == ReadResult::kClosed) {
        closed = true;
        break;
      }
      if (line.empty()) continue;  // blank keep-alive lines are fine
      const std::uint64_t seq =
          requests_.fetch_add(1, std::memory_order_relaxed) + 1;
      batch.push_back(parse_request(line, seq, hasher));
      // Malformed lines are counted where they are detected, so every
      // transport reports them identically (and `stats` sees errors from
      // its own batch).
      if (!batch.back().error.empty()) {
        errors_.fetch_add(1, std::memory_order_relaxed);
      }
      // A rejected quit (e.g. one carrying job fields) must not shut the
      // session down.
      if (batch.back().cmd == "quit" && batch.back().error.empty()) {
        quit = true;
        break;
      }
    }
    if (batch.empty()) break;  // EOF / shutdown

    batches_.fetch_add(1, std::memory_order_relaxed);
    process_batch(engine, batch);
    for (const Job& job : batch) write_response(conn, job);
    // A batch is delivered when its flush succeeds.  Once one fails the
    // peer gets nothing more, so the session ends.
    if (!conn.flush()) {
      undelivered_.fetch_add(batch.size(), std::memory_order_relaxed);
      break;
    }
    responses_.fetch_add(batch.size(), std::memory_order_relaxed);
  }

  // quit shuts the whole server down, not just this client: the accept
  // loop wakes, stops accepting, and drains the other sessions.
  if (quit) transport.shutdown();
}

std::uint64_t Server::serve(Transport& transport) {
  std::vector<std::unique_ptr<SessionState>> sessions;
  std::mutex mu;
  std::condition_variable cv;

  while (std::unique_ptr<Connection> conn = transport.accept()) {
    auto state = std::make_unique<SessionState>();
    state->conn = std::move(conn);
    SessionState* raw = state.get();
    state->thread = std::thread([this, raw, &transport, &mu, &cv] {
      run_session(*raw->conn, transport);
      {
        const std::lock_guard<std::mutex> lock(mu);
        // Close the connection as the session ends (the peer must see EOF
        // now, not at drain time).  Under the lock so the drain loop never
        // aborts a connection mid-destruction.
        raw->conn.reset();
        raw->done.store(true, std::memory_order_release);
      }
      cv.notify_all();
    });
    sessions.push_back(std::move(state));

    // Reap finished sessions so a long-lived server doesn't accumulate
    // joinable threads.
    for (auto& s : sessions) {
      if (s && s->done.load(std::memory_order_acquire)) {
        s->thread.join();
        s.reset();
      }
    }
    std::erase_if(sessions,
                  [](const std::unique_ptr<SessionState>& s) { return !s; });
  }

  // Drain: sessions see kClosed on their next blocking read (the shutdown
  // pipe stays readable).  Give in-flight batches drain_timeout_ms, then
  // abort the stragglers' connections and join everyone.
  {
    std::unique_lock<std::mutex> lock(mu);
    const auto all_done = [&sessions] {
      for (const auto& s : sessions) {
        if (!s->done.load(std::memory_order_acquire)) return false;
      }
      return true;
    };
    if (!cv.wait_for(lock, std::chrono::milliseconds(config_.drain_timeout_ms),
                     all_done)) {
      for (auto& s : sessions) {
        if (!s->done.load(std::memory_order_acquire)) s->conn->abort();
      }
    }
  }
  for (auto& s : sessions) s->thread.join();
  return responses_.load(std::memory_order_relaxed);
}

std::uint64_t Server::serve(std::istream& in, std::ostream& out) {
  StreamTransport transport(in, out);
  return serve(transport);
}

ServeCounters Server::counters() const {
  ServeCounters c;
  c.requests = requests_.load(std::memory_order_relaxed);
  c.responses = responses_.load(std::memory_order_relaxed);
  c.undelivered = undelivered_.load(std::memory_order_relaxed);
  c.errors = errors_.load(std::memory_order_relaxed);
  c.batches = batches_.load(std::memory_order_relaxed);
  c.connections = connections_.load(std::memory_order_relaxed);
  return c;
}

std::string Server::summary() const {
  const ServeCounters n = counters();
  const CacheStats c = cache_.stats();
  std::ostringstream os;
  os << n.requests << " requests in " << n.batches << " batches ("
     << n.errors << " errors), ";
  if (n.undelivered > 0) os << n.undelivered << " responses undelivered, ";
  os << "cache: " << c.hits << " hits / " << c.misses
     << " misses, " << c.entries << " entries, " << c.bytes / 1024 << " KiB";
  if (c.evictions > 0) os << ", " << c.evictions << " evictions";
  const std::uint64_t map_total =
      inc_map_total_.load(std::memory_order_relaxed);
  if (map_total > 0) {
    os << ", incremental: "
       << inc_map_reused_.load(std::memory_order_relaxed) << "/" << map_total
       << " map cones reused";
  }
  return os.str();
}

}  // namespace t1map::serve
