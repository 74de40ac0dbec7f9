#include "cli/serve_cmd.hpp"

#include <csignal>
#include <iostream>

#include "serve/disk_cache.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace t1map::cli {

namespace {

/// The active socket listener, for the SIGTERM/SIGINT handler.  A plain
/// pointer store: the handler only ever calls `Transport::shutdown()`,
/// which is one async-signal-safe pipe write.
serve::SocketListener* g_listener = nullptr;

void handle_term(int) {
  if (g_listener != nullptr) g_listener->shutdown();
}

}  // namespace

int run_serve(const Options& opts) {
  serve::ServeConfig config;
  config.threads = opts.threads;
  config.batch_size = opts.serve_batch;
  config.defaults.phases = opts.phases;
  config.defaults.verify_rounds = opts.verify_rounds;
  config.defaults.cec = opts.run_cec;
  config.cache.max_bytes = static_cast<std::size_t>(opts.cache_mb) << 20;
  config.cache_dir = opts.cache_dir;
  config.drain_timeout_ms = opts.drain_timeout_ms;

  serve::Server server(config);
  if (server.disk_tier() != nullptr) {
    std::cerr << "t1map: cache dir " << opts.cache_dir << " ("
              << server.disk_tier()->recovered_entries()
              << " entries recovered";
    if (server.disk_tier()->recovered_truncated_bytes() > 0) {
      std::cerr << ", " << server.disk_tier()->recovered_truncated_bytes()
                << " torn bytes dropped";
    }
    std::cerr << ")" << std::endl;
  }

  if (!opts.serve_listen.empty()) {
    serve::SocketListener listener(
        serve::parse_listen_address(opts.serve_listen), opts.serve_idle_ms);
    std::cerr << "t1map: serving on " << listener.describe() << " (threads "
              << config.threads << ", batch " << config.batch_size
              << ", cache " << opts.cache_mb << " MiB)" << std::endl;

    g_listener = &listener;
    struct sigaction sa{};
    sa.sa_handler = handle_term;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    server.serve(listener);
    g_listener = nullptr;
  } else {
    std::cerr << "t1map: serving (threads " << config.threads << ", batch "
              << config.batch_size << ", cache " << opts.cache_mb
              << " MiB) — stdin" << std::endl;
    // Unsynced cin actually buffers, which is what the batch filler's
    // in_avail() probe needs to see queued request lines; the
    // stdio-synced default reads character-at-a-time and would degrade
    // every batch to a single request.
    std::ios::sync_with_stdio(false);
    server.serve(std::cin, std::cout);
  }

  std::cerr << "t1map: serve done: " << server.summary() << std::endl;
  // A socket client may hang up; the one stream reader must get every
  // response.
  if (opts.serve_listen.empty() && server.counters().undelivered > 0) {
    std::cerr << "t1map: error: responses could not be written to stdout"
              << std::endl;
    return 1;
  }
  return 0;
}

}  // namespace t1map::cli
