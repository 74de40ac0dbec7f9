// The `serve-mix` workload: an in-process `serve::Server` on a Unix-domain
// socket, fed by one client connection that keeps a window of requests in
// flight.  The seeded stream mixes popular repeats (cache reads), fresh
// `fuzz<N>` designs (misses that write to the cache and evict) and chains
// of one-gate mutants sent as inline AIGER (misses the cone memo splices).

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "fuzz/mutate.hpp"
#include "fuzz/random_aig.hpp"
#include "gen/registry.hpp"
#include "io/aiger.hpp"
#include "io/json.hpp"
#include "serve/aig_hash.hpp"
#include "serve/flow_cache.hpp"
#include "serve/result_codec.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace t1 = t1map::t1;
namespace serve = t1map::serve;

namespace {

/// One pass over the stream: this many requests, of which this many fresh
/// designs and this many edit chains of this length; the rest are popular
/// repeats.  The shares are assumptions, not measured traffic: they are set
/// so that about 88% of requests hit the cache, and split the misses
/// between fresh designs and edit steps.
constexpr std::size_t kRequestsPerPass = 4000;
constexpr std::size_t kFreshPerPass = 200;
constexpr std::size_t kChainsPerPass = 44;
constexpr std::size_t kChainLength = 7;
/// Requests the client keeps in flight; also the server's batch size.
constexpr int kWindow = 16;
/// Memory tier budget as a share of the stream's working set, so popular
/// results are evicted to the disk tier and read back from it (assumed).
constexpr double kMemoryShare = 0.1;

/// Frequently requested designs, most popular first; request counts follow
/// a Zipf law with exponent `kZipfExponent` over the ranks (assumed).
constexpr const char* kPopular[] = {
    "adder16", "mul6",    "voter15", "square8",      "adder32",
    "sin8",    "mul8",    "voter21", "comparator16", "adder8",
    "log2_8",  "square10", "mul5",   "voter9",       "adder64",
    "sin6",    "square6", "adder24", "voter31",      "comparator8",
    "log2_16", "mul7",    "adder48", "mul4"};
constexpr double kZipfExponent = 1.1;

/// The seed picks its designs from fixed candidate lists, so that the
/// stream depends on the seed alone and not on how the library treats the
/// designs.  Fresh designs are `fuzz<N>` with N in [kFreshMinOps,
/// kFreshMaxOps); edit chain j of kChainCandidates starts from
/// `chain_base(j)`.  When the lists were fixed, the flow accepted every
/// candidate design and no two candidates were the same design, except
/// that 397 of the 1680 edit steps repeat an earlier step of their own
/// chain (the edit leaves the design the outputs see unchanged); the cache
/// serves those as hits.  A candidate the flow rejects fails its requests.
constexpr std::size_t kFreshMinOps = 120;
constexpr std::size_t kFreshMaxOps = 1200;
constexpr std::size_t kChainCandidates = 240;

enum class Kind { kPopular, kFresh, kChain };

struct Design {
  std::string label;
  bool popular = false;
  std::string ref_stats;  // cold FlowEngine result, serve rendering
  std::string ref_error;  // why the cold FlowEngine run failed, or empty
  t1::FlowStats numbers;
  std::size_t bytes = 0;  // estimated cache footprint
};

struct Request {
  Kind kind = Kind::kPopular;
  std::size_t design = 0;
  std::string gen;    // generator name, or empty
  std::string aiger;  // inline ASCII AIGER, or empty
  std::string line;   // the request as sent, newline included
};

struct Stream {
  std::vector<Design> designs;
  std::vector<t1map::Aig> aigs;  // index-aligned with `designs`
  std::vector<Request> requests;  // in the first pass's order
  /// Where each slot's requests start in `requests`: one request, or an
  /// edit chain's steps, which stay together and in order.
  std::vector<std::size_t> slot_starts;
  std::size_t working_set_bytes = 0;
};

std::string request_line(std::size_t id, const Request& r) {
  std::ostringstream os;
  t1map::io::JsonWriter w(os);
  w.begin_object().key("id").value(static_cast<double>(id));
  if (!r.gen.empty()) {
    w.key("gen").value(r.gen);
  } else {
    w.key("aiger").value(r.aiger);
  }
  w.key("cec").value(false).end_object();
  os << '\n';
  return os.str();
}

std::string aiger_text(const t1map::Aig& aig) {
  std::ostringstream os;
  t1map::io::write_aiger(os, aig, t1map::io::AigerFormat::kAscii);
  return os.str();
}

/// The first design of candidate edit chain `j`.
t1map::Aig chain_base(std::size_t j) {
  t1map::fuzz::RandomAigOptions options;
  options.seed = 1000 + j;
  options.num_pis = 16;
  options.num_pos = 12;
  options.num_ops =
      static_cast<std::uint32_t>(150 + 150 * j / kChainCandidates);
  return t1map::fuzz::random_aig(options);
}

/// Step `k` > 0 of candidate edit chain `j`: a one-gate mutant of step k-1.
t1map::Aig chain_step(const t1map::Aig& prev, std::size_t j, std::size_t k) {
  t1map::fuzz::MutateOptions options;
  options.seed = 1000 * (j + 1) + k;
  options.edits = 1;
  return t1map::fuzz::mutate_aig(prev, options);
}

/// A generator of its own for slot `index` of kind `kind`, so that no draw
/// depends on another.
std::mt19937_64 slot_rng(std::uint64_t seed, Kind kind, std::size_t index) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(kind),
                    static_cast<std::uint32_t>(index)};
  return std::mt19937_64(seq);
}

/// Slot `i` of `n` draws uniformly from the i-th of n equal bands of
/// [lo, hi), so that every seed draws the same spread of sizes.
std::size_t banded(std::mt19937_64& rng, std::size_t i, std::size_t n,
                   std::size_t lo, std::size_t hi) {
  const std::size_t from = lo + (hi - lo) * i / n;
  const std::size_t to = lo + (hi - lo) * (i + 1) / n;
  return std::uniform_int_distribution<std::size_t>(from, to - 1)(rng);
}

/// Builds the seeded request stream and the cold reference result of every
/// distinct design in it.  The AIG a reference is computed on is the one
/// the server will build from the request (generator or parsed AIGER).
Stream make_stream(std::uint64_t seed) {
  Stream s;
  std::unordered_map<std::string, std::size_t> by_digest;
  t1::FlowEngine engine(t1::Pipeline::default_flow(/*with_cec=*/false));
  engine.set_incremental(false);
  // Adds a design with its cold reference result, or finds it when the
  // stream already has it; returns its index.
  const auto intern = [&](const std::string& label, const t1map::Aig& aig,
                          bool popular) {
    const std::string key = serve::hash_aig(aig).hex();
    if (const auto it = by_digest.find(key); it != by_digest.end()) {
      return it->second;
    }
    Design d{label, popular, {}, {}, {}, 0};
    try {
      const t1::EngineResult r = engine.run(aig, t1::FlowParams{});
      if (r.ok()) {
        d.ref_stats = stats_text(r.stats);
        d.numbers = r.stats;
        d.bytes = serve::estimate_result_bytes(r);
      } else {
        d.ref_error = std::string("status ") + t1::flow_status_name(r.status);
      }
    } catch (const std::exception& e) {
      d.ref_error = e.what();
    }
    s.working_set_bytes += d.bytes;
    s.designs.push_back(std::move(d));
    s.aigs.push_back(aig);
    by_digest.emplace(key, s.designs.size() - 1);
    return s.designs.size() - 1;
  };
  const auto push = [&](Kind kind, std::size_t design, std::string gen,
                        std::string aiger) {
    Request r{kind, design, std::move(gen), std::move(aiger), {}};
    r.line = request_line(s.requests.size(), r);
    s.requests.push_back(std::move(r));
  };

  // The composition is fixed and only the order and the candidates picked
  // vary with the seed, so runs on different seeds do comparable work:
  // popular designs get Zipf-proportional request counts.
  struct Entry {
    Kind kind;
    std::size_t index;  // slot of its kind; kPopular: index into kPopular
  };
  std::vector<Entry> slots;
  for (std::size_t i = 0; i < kFreshPerPass; ++i) {
    slots.push_back(Entry{Kind::kFresh, i});
  }
  for (std::size_t i = 0; i < kChainsPerPass; ++i) {
    slots.push_back(Entry{Kind::kChain, i});
  }
  const std::size_t num_popular =
      kRequestsPerPass - kFreshPerPass - kChainsPerPass * kChainLength;
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < std::size(kPopular); ++i) {
    weight_sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
  }
  for (std::size_t i = 0; i < std::size(kPopular); ++i) {
    const double share =
        1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent) / weight_sum;
    const std::size_t count = std::max<std::size_t>(
        1, static_cast<std::size_t>(share * static_cast<double>(num_popular)));
    slots.insert(slots.end(), count, Entry{Kind::kPopular, i});
  }
  // Rounding left a few requests over: they go to the most popular design.
  while (slots.size() < kFreshPerPass + kChainsPerPass + num_popular) {
    slots.push_back(Entry{Kind::kPopular, 0});
  }
  std::mt19937_64 order_rng(seed * 0x9E3779B97F4A7C15ull + 7);
  std::shuffle(slots.begin(), slots.end(), order_rng);

  for (const Entry& entry : slots) {
    s.slot_starts.push_back(s.requests.size());
    if (entry.kind == Kind::kFresh) {
      // A fresh random design, by generator name.
      std::mt19937_64 rng = slot_rng(seed, entry.kind, entry.index);
      const std::string name =
          "fuzz" + std::to_string(banded(rng, entry.index, kFreshPerPass,
                                         kFreshMinOps, kFreshMaxOps));
      push(Kind::kFresh, intern(name, t1map::gen::make_named(name), false),
           name, {});
    } else if (entry.kind == Kind::kChain) {
      // An edit chain: a candidate base, then one-gate mutants of the
      // previous design, back to back.
      std::mt19937_64 rng = slot_rng(seed, entry.kind, entry.index);
      const std::size_t j =
          banded(rng, entry.index, kChainsPerPass, 0, kChainCandidates);
      t1map::Aig aig;
      for (std::size_t k = 0; k < kChainLength; ++k) {
        aig = k == 0 ? chain_base(j) : chain_step(aig, j, k);
        std::string text = aiger_text(aig);
        const std::string label =
            "chain" + std::to_string(j) + "." + std::to_string(k);
        // The server builds its AIG from the text, so the reference does.
        const std::size_t d =
            intern(label, t1map::io::read_aiger_string(text), false);
        push(Kind::kChain, d, {}, std::move(text));
      }
    } else {
      const char* name = kPopular[entry.index];
      push(Kind::kPopular, intern(name, t1map::gen::make_named(name), true),
           name, {});
    }
  }
  // Every popular design has a reference, requested or not, so the QoR
  // sums do not depend on the seed.
  for (const char* name : kPopular) {
    intern(name, t1map::gen::make_named(name), true);
  }
  return s;
}

/// The requests of pass `pass` of a run with seed `seed`.  The first pass
/// sends them in the stream's order; each later pass sends the stream's
/// slots in an order of its own, so that a run's figures do not rest on
/// where one order puts the largest misses.
std::vector<Request> pass_requests(const Stream& stream, std::uint64_t seed,
                                   std::size_t pass) {
  if (pass == 0) return stream.requests;
  std::vector<std::size_t> order(stream.slot_starts.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(pass)};
  std::mt19937_64 rng(seq);
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<Request> out;
  out.reserve(stream.requests.size());
  for (const std::size_t slot : order) {
    const std::size_t end = slot + 1 < stream.slot_starts.size()
                                ? stream.slot_starts[slot + 1]
                                : stream.requests.size();
    for (std::size_t i = stream.slot_starts[slot]; i < end; ++i) {
      Request r = stream.requests[i];
      r.line = request_line(out.size(), r);
      out.push_back(std::move(r));
    }
  }
  return out;
}

/// Blocking line client over a Unix-domain socket.
class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket: " + errno_text());
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (path.size() >= sizeof sa.sun_path) {
      throw std::runtime_error("socket path too long: " + path);
    }
    std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) !=
        0) {
      const std::string err = errno_text();
      ::close(fd_);
      throw std::runtime_error("connect " + path + ": " + err);
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(std::string_view data) {
    while (!data.empty()) {
      const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send: " + errno_text());
      data.remove_prefix(static_cast<std::size_t>(n));
    }
  }

  /// Next line without its newline, waiting for it; false once the peer
  /// closed.
  bool read_line(std::string& line) {
    for (;;) {
      if (buffered_line(line)) return true;
      buf_.erase(0, start_);
      start_ = 0;
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Next line if one has already been received; never waits.
  bool buffered_line(std::string& line) {
    const std::size_t nl = buf_.find('\n', start_);
    if (nl == std::string::npos) return false;
    line.assign(buf_, start_, nl - start_);
    start_ = nl + 1;
    return true;
  }

 private:
  static std::string errno_text() { return std::strerror(errno); }

  int fd_ = -1;
  std::string buf_;
  std::size_t start_ = 0;
};

/// A server with a fresh disk tier, serving on its own thread until
/// destroyed; the disk tier's directory is removed afterwards.
class LiveServer {
 public:
  LiveServer(const serve::ServeConfig& config, std::string socket_path)
      : socket_path_(std::move(socket_path)),
        cache_dir_(config.cache_dir),
        listener_(serve::ListenAddress{serve::ListenAddress::Kind::kUnix,
                                       socket_path_, {}, 0}),
        server_(std::make_unique<serve::Server>(config)),
        thread_([this] {
          try {
            server_->serve(listener_);
          } catch (const std::exception& e) {
            // The client sees the connection close and fails its requests.
            std::cerr << "perfbench: server stopped: " << e.what() << '\n';
          }
        }) {}

  ~LiveServer() {
    listener_.shutdown();
    thread_.join();
    server_.reset();
    std::error_code ec;
    std::filesystem::remove_all(cache_dir_, ec);
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  const std::string& socket_path() const { return socket_path_; }

 private:
  std::string socket_path_;
  std::string cache_dir_;
  serve::SocketListener listener_;
  std::unique_ptr<serve::Server> server_;
  std::thread thread_;  // last: it uses every member above
};

struct ServerFactory {
  serve::ServeConfig base;
  std::string prefix;  // per-process name prefix for socket and cache dir
  int started = 0;

  std::unique_ptr<LiveServer> start() {
    serve::ServeConfig config = base;
    const std::string tag = prefix + std::to_string(started++);
    config.cache_dir = tag + ".cache";
    std::error_code ec;
    std::filesystem::remove_all(config.cache_dir, ec);
    return std::make_unique<LiveServer>(config, tag + ".sock");
  }
};

struct CacheCounters {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  std::int64_t memory_hits = 0;
  std::int64_t disk_hits = 0;
  std::int64_t map_cones_total = 0;
  std::int64_t map_cones_reused = 0;

  friend bool operator==(const CacheCounters&, const CacheCounters&) = default;
};

struct PassResult {
  PassTimes times;
  std::vector<std::string> responses;
  CacheCounters cache;
};

CacheCounters parse_stats(const std::string& line) {
  const t1map::io::Json doc = t1map::io::Json::parse(line);
  const t1map::io::Json& s = doc.at("serve");
  const t1map::io::Json& cache = s.at("cache");
  const auto num = [](const t1map::io::Json& j, const char* key) {
    return static_cast<std::int64_t>(j.at(key).as_number());
  };
  CacheCounters c;
  c.hits = num(cache, "hits");
  c.misses = num(cache, "misses");
  c.evictions = num(cache, "evictions");
  const t1map::io::Json& tiers = cache.at("tiers");
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const std::string& name = tiers.at(i).at("name").as_string();
    if (name == "memory") c.memory_hits = num(tiers.at(i), "hits");
    if (name == "disk") c.disk_hits = num(tiers.at(i), "hits");
  }
  const t1map::io::Json& inc = s.at("incremental");
  c.map_cones_total = num(inc, "map_cones_total");
  c.map_cones_reused = num(inc, "map_cones_reused");
  return c;
}

/// Sends `requests` over one connection with `window` requests in
/// flight, then asks for `stats`.  The window is refilled with one write
/// after every response already received is taken, so whole windows reach
/// the server together and its batches do not split by timing.
PassResult run_stream(const std::vector<Request>& requests,
                      LiveServer& server, int window) {
  PassResult out;
  const std::size_t n = requests.size();
  out.times.latency_ms.reserve(n);
  out.responses.reserve(n);
  std::vector<std::int64_t> sent_at(n, 0);
  Client client(server.socket_path());
  const auto take = [&](std::string& line) {
    const std::size_t k = out.responses.size();
    out.times.latency_ms.push_back(
        1e-6 * static_cast<double>(now_ns() - sent_at[k]));
    out.responses.push_back(std::move(line));
  };
  const std::int64_t start = now_ns();
  std::size_t sent = 0;
  std::string batch;
  std::string line;
  while (out.responses.size() < n) {
    batch.clear();
    const std::int64_t now = now_ns();
    while (sent < n && sent - out.responses.size() <
                           static_cast<std::size_t>(window)) {
      sent_at[sent] = now;
      batch += requests[sent].line;
      ++sent;
    }
    if (!batch.empty()) client.send(batch);
    if (!client.read_line(line)) break;
    take(line);
    while (client.buffered_line(line)) take(line);
  }
  out.times.seconds = seconds_since(start);
  client.send("{\"id\":\"stats\",\"cmd\":\"stats\"}\n");
  if (client.read_line(line)) out.cache = parse_stats(line);
  return out;
}

/// The correctness oracle: every request answered, ok, and its stats
/// byte-equal to the cold reference of its design.
void check_pass(const Stream& stream, const std::vector<Request>& requests,
                const PassResult& pass, Report& report) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& req = requests[i];
    const Design& design = stream.designs[req.design];
    std::string error;
    if (!design.ref_error.empty()) {
      error = "the cold FlowEngine run failed: " + design.ref_error;
    } else if (i >= pass.responses.size()) {
      error = "no response";
    } else {
      const std::string& resp = pass.responses[i];
      const std::string id = "{\"id\":" + std::to_string(i) + ",";
      if (resp.rfind(id, 0) != 0) {
        error = "response out of order: " + resp.substr(0, 40);
      } else if (resp.find("\"ok\":true") == std::string::npos) {
        error = "not ok: " + resp.substr(0, 200);
      } else if (resp.find("\"stats\":" + design.ref_stats) ==
                 std::string::npos) {
        error = "stats differ from the cold FlowEngine reference";
      }
    }
    report.op(error.empty(), "request " + std::to_string(i) + " (" +
                                 design.label + "): " + error);
  }
}

/// Re-enacts one pass of the stream in-process through the layer calls
/// the serve path makes: generator or AIGER parse, structural hash, the
/// pipeline on a miss plus result encoding, result decoding on a hit.
/// Results are kept without bound; tier behaviour is the real server's.
std::int64_t replay_pass(const Stream& stream, Tracer& tracer,
                         LayerScratch& scratch, LayerCounters& counters,
                         std::uint64_t& op_id, Report& report) {
  std::unordered_map<std::string, std::string> results;  // digest -> bytes
  serve::AigHasher hasher;
  const t1::FlowParams params;  // what a request without options runs
  for (const Request& req : stream.requests) {
    const Design& design = stream.designs[req.design];
    if (!design.ref_error.empty()) {
      report.op(false, "replay " + design.label +
                           ": the cold FlowEngine run failed: " +
                           design.ref_error);
      continue;
    }
    tracer.set_op(op_id++);
    std::string error;
    t1map::Aig aig;
    LayerRun run;
    bool mapped = false;
    {
      const Tracer::Span op(tracer, "request");
      if (!req.gen.empty()) {
        const Tracer::Span span(tracer, "gen.make");
        aig = t1map::gen::make_named(req.gen);
      } else {
        const Tracer::Span span(tracer, "io.aiger.parse");
        aig = t1map::io::read_aiger_string(req.aiger);
      }
      std::string key;
      {
        const Tracer::Span span(tracer, "serve.hash");
        key = hasher.hash(aig).hex();
      }
      const auto hit = results.find(key);
      if (hit != results.end()) {
        t1::EngineResult decoded;
        {
          const Tracer::Span span(tracer, "serve.codec.decode");
          decoded = serve::decode_result(hit->second);
        }
        if (stats_text(decoded.stats) != design.ref_stats) {
          error = "decoded stats differ from the reference";
        }
      } else {
        run = run_layers(aig, params, /*with_cec=*/false, scratch, tracer,
                         counters);
        mapped = true;
        if (!run.result.ok()) {
          error = std::string("layer calls: ") +
                  t1::flow_status_name(run.result.status);
        } else if (stats_text(run.result.stats) != design.ref_stats) {
          error = "layer-call stats differ from the cold FlowEngine";
        }
        std::string bytes;
        {
          const Tracer::Span span(tracer, "serve.codec.encode");
          bytes = serve::encode_result(run.result);
        }
        counters.codec_bytes += static_cast<std::int64_t>(bytes.size());
        results.emplace(std::move(key), std::move(bytes));
      }
    }
    if (mapped) run_probes(aig, params, run, scratch, tracer, counters);
    report.op(error.empty(), "replay " + design.label + ": " + error);
  }
  return static_cast<std::int64_t>(stream.requests.size());
}

serve::ServeConfig serve_config(const Stream& stream) {
  serve::ServeConfig config;
  config.threads = 1;  // serial dispatch keeps the engine's cone memo
  config.batch_size = kWindow;
  config.cache.num_shards = 4;
  config.cache.max_bytes = static_cast<std::size_t>(
      kMemoryShare * static_cast<double>(stream.working_set_bytes));
  return config;
}

}  // namespace

Report run_serve_mix(const Options& opt) {
  Report report;
  add_host_facts(opt, report);
  ServerFactory factory;
  factory.prefix = "serve-mix-" + std::to_string(::getpid()) + "-";

  // Set-up: the stream with its references, then a server with a fresh
  // disk tier; repeated, and the last one kept.
  Stream stream;
  std::unique_ptr<LiveServer> server;
  HostSpeed speed;
  const SetupTime setup_time = timed_setup(speed, [&] {
    server.reset();
    stream = make_stream(opt.seed);
    factory.base = serve_config(stream);
    server = factory.start();
  });
  for (std::size_t d = 0; d < stream.designs.size(); ++d) {
    add_input_digest(report, stream.designs[d].label, stream.aigs[d]);
  }
  {
    // The stream's make-up: requests of each kind, and how many of them
    // repeat a design requested earlier in the pass (the expected hits).
    std::size_t count[3] = {0, 0, 0};
    std::size_t repeats[3] = {0, 0, 0};
    std::vector<bool> seen(stream.designs.size(), false);
    for (const Request& r : stream.requests) {
      const auto k = static_cast<std::size_t>(r.kind);
      ++count[k];
      repeats[k] += seen[r.design];
      seen[r.design] = true;
    }
    const double n = static_cast<double>(stream.requests.size());
    const char* names[3] = {"popular", "fresh", "edit-chain"};
    std::ostringstream os;
    os << stream.requests.size() << " requests per pass:";
    for (std::size_t k = 0; k < 3; ++k) {
      os << ' ' << names[k] << ' ' << count[k] << " (share "
         << static_cast<double>(count[k]) / n << ", " << repeats[k]
         << " repeats)";
    }
    os << "; expected hit share "
       << static_cast<double>(repeats[0] + repeats[1] + repeats[2]) / n
       << "; " << stream.designs.size() << " distinct designs; memory tier "
       << factory.base.cache.max_bytes << " of " << stream.working_set_bytes
       << " working-set bytes";
    report.notes.push_back(os.str());
  }

  // Windowed passes, each on a fresh server: whole passes, at least one,
  // and none that would end after `seconds`.  With `speed`, the host's
  // speed is sampled before and after each pass while no server runs, so
  // that the server's threads cannot slow the kernel down.  `last_cache`
  // gets the server's counters after the last pass.
  CacheCounters last_cache;
  const auto windowed = [&](double seconds, HostSpeed* speed) {
    std::vector<PassTimes> passes;
    const std::int64_t start = now_ns();
    double last_s = 0.0;
    while (passes.empty() || seconds_since(start) + last_s <= seconds) {
      const std::int64_t t0 = now_ns();
      const std::vector<Request> requests =
          pass_requests(stream, opt.seed, passes.size());
      if (speed != nullptr) {
        server.reset();
        speed->begin();
      }
      if (server == nullptr) server = factory.start();
      PassResult pass = run_stream(requests, *server, kWindow);
      server.reset();
      if (speed != nullptr) pass.times.scale = speed->end();
      check_pass(stream, requests, pass, report);
      last_cache = pass.cache;
      passes.push_back(std::move(pass.times));
      last_s = seconds_since(t0);
    }
    return passes;
  };

  if (!opt.trace) {
    const std::vector<PassTimes> passes = windowed(opt.seconds, &speed);
    report_setup(report, setup_time, speed);
    report.pass_metrics(passes);
    const CacheCounters& c = last_cache;
    std::ostringstream os;
    os << "server stats after the last pass: hit share "
       << static_cast<double>(c.hits) / static_cast<double>(c.hits + c.misses)
       << " (" << c.hits << " hits, " << c.misses << " misses; "
       << c.memory_hits << " memory-tier and " << c.disk_hits
       << " disk-tier hits; " << c.evictions << " evictions); memo reused "
       << c.map_cones_reused << " of " << c.map_cones_total << " map cones";
    report.notes.push_back(os.str());
    long area = 0;
    long dffs = 0;
    for (const Design& d : stream.designs) {
      if (!d.popular) continue;
      area += d.numbers.area_jj;
      dffs += d.numbers.dffs;
    }
    report.metric("area_jj_t1", static_cast<double>(area), "JJ");
    report.metric("dffs_t1", static_cast<double>(dffs), "count");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return report;
  }

  // Traced run.  First the deterministic counters: two synchronous passes
  // (one request in flight, so batching cannot depend on timing), each on
  // a fresh server, must agree exactly.
  CacheCounters sync[2];
  for (CacheCounters& c : sync) {
    if (server == nullptr) server = factory.start();
    const PassResult pass = run_stream(stream.requests, *server, 1);
    server.reset();
    check_pass(stream, stream.requests, pass, report);
    c = pass.cache;
  }
  if (!(sync[0] == sync[1])) {
    report.fail("determinism: serve cache counters differ between passes");
  }
  // Then the untraced time per request, and the traced replay.
  double elapsed = 0.0;
  std::int64_t requests = 0;
  for (const PassTimes& pass : windowed(opt.seconds / 2, nullptr)) {
    elapsed += pass.seconds;
    requests += static_cast<std::int64_t>(pass.latency_ms.size());
  }

  Tracer tracer;
  LayerScratch scratch;
  std::vector<LayerCounters> per_pass;
  std::int64_t traced_ops = 0;
  std::uint64_t op_id = 0;
  const std::int64_t replay_start = now_ns();
  while (per_pass.size() < 2 || seconds_since(replay_start) < opt.seconds / 2) {
    LayerCounters counters;
    traced_ops += replay_pass(stream, tracer, scratch, counters, op_id, report);
    per_pass.push_back(counters);
  }
  for (std::size_t p = 1; p < per_pass.size(); ++p) {
    if (!(per_pass[p] == per_pass[0])) {
      report.fail("determinism: replay counters of pass " + std::to_string(p) +
                  " differ from pass 0");
    }
  }

  LayerValues values;
  add_layer_values(values, report, tracer, "request", traced_ops,
                   1e3 * elapsed / static_cast<double>(requests),
                   per_pass.front());
  const CacheCounters& c = sync[0];
  const auto ratio = [](std::int64_t a, std::int64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  values["serve.cache.hit_ratio"] = ratio(c.hits, c.hits + c.misses);
  values["serve.cache.memory_hits"] = static_cast<double>(c.memory_hits);
  values["serve.cache.disk_hits"] = static_cast<double>(c.disk_hits);
  values["serve.cache.evictions"] = static_cast<double>(c.evictions);
  values["t1.memo.map_reuse_ratio"] =
      ratio(c.map_cones_reused, c.map_cones_total);
  values["t1.memo.map_cones_total"] = static_cast<double>(c.map_cones_total);
  report.counters.emplace_back("serve.cache.hits", c.hits);
  report.counters.emplace_back("serve.cache.misses", c.misses);
  report.counters.emplace_back("serve.cache.evictions", c.evictions);
  report.counters.emplace_back("serve.cache.memory_hits", c.memory_hits);
  report.counters.emplace_back("serve.cache.disk_hits", c.disk_hits);
  report.counters.emplace_back("t1.memo.map_cones_total", c.map_cones_total);
  report.counters.emplace_back("t1.memo.map_cones_reused", c.map_cones_reused);
  emit_layer_metrics(report, values);
  write_trace(opt, tracer, report);
  std::ostringstream os;
  os << "untraced " << requests << " requests, traced replay " << traced_ops
     << " requests in " << per_pass.size()
     << " passes (in-process: no socket, no batching)";
  report.notes.push_back(os.str());
  return report;
}

}  // namespace perfbench
