/// \file transport.hpp
/// \brief Transport abstraction for the serving loop.
///
/// The server core speaks JSONL over an abstract `Connection`; where the
/// lines come from is the transport's business:
///
///   * `StreamTransport` — the original single-client mode: one connection
///     wrapping a `std::istream`/`std::ostream` pair (stdin/stdout, a
///     FIFO).  `accept()` yields it once, then reports shutdown.
///   * `SocketListener` — a Unix-domain or loopback-TCP listener.  Each
///     accepted client becomes its own `Connection`; the server runs one
///     session thread per connection over the shared cache.
///
/// Reads come in two flavors to preserve the dispatcher's batching
/// semantics: `read_line(line, /*wait=*/false)` returns `kIdle` instead of
/// blocking when no complete line is buffered, which is exactly the
/// "input drained, flush the batch" signal the stream loop derived from
/// `in_avail()`.  A blocking read on a socket is bounded by the configured
/// idle timeout, after which the connection is closed — an abandoned
/// client must not pin a session thread forever.
///
/// Shutdown is async-signal-compatible: `Transport::shutdown()` only
/// writes one byte to a self-pipe (SIGTERM-safe), unblocking `accept()`
/// and every blocked connection read so the server can drain and exit.

#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

namespace t1map::serve {

/// Outcome of a `Connection::read_line` call.
enum class ReadResult {
  kLine,    ///< `line` holds one complete request line (no newline).
  kIdle,    ///< No complete line buffered right now (non-waiting read).
  kClosed,  ///< Peer closed, idle timeout expired, or shutdown requested.
};

/// One bidirectional JSONL client channel.  Not thread-safe: each
/// connection is owned by exactly one session thread.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Reads the next line.  With `wait` unset, returns `kIdle` when no
  /// complete line is immediately available; with it set, blocks until a
  /// line arrives, the peer closes, the idle timeout expires, or the
  /// transport shuts down.
  virtual ReadResult read_line(std::string& line, bool wait) = 0;

  /// Queues response bytes (the caller appends its own newline).
  virtual void write(const std::string& data) = 0;

  /// Pushes queued bytes to the peer.  Returns false once the peer is
  /// unreachable; the session stops writing but still drains its batch.
  virtual bool flush() = 0;

  /// Forcibly tears the connection down (both directions), unblocking any
  /// read in progress on the owning session thread.  The only Connection
  /// method that is safe to call from another thread; used by drain.
  virtual void abort() = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Blocks until a client arrives; returns nullptr once the transport is
  /// shut down (or, for the stream transport, after its only connection).
  virtual std::unique_ptr<Connection> accept() = 0;

  /// Requests shutdown: `accept()` returns nullptr and blocked connection
  /// reads see `kClosed`.  Async-signal-safe for `SocketListener` (one
  /// `write` to a pipe) and idempotent.
  virtual void shutdown() = 0;
};

/// Parsed `--serve-listen` endpoint.
struct ListenAddress {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;         ///< kUnix: socket path.
  std::string host;         ///< kTcp: bind host (numeric or "localhost").
  std::uint16_t port = 0;   ///< kTcp: bind port; 0 = ephemeral.
};

/// Parses "unix:PATH", "tcp:HOST:PORT", or bare "HOST:PORT".  Throws
/// `ContractError` on malformed input.
ListenAddress parse_listen_address(const std::string& spec);

/// Single-connection transport over caller-owned streams.
class StreamTransport final : public Transport {
 public:
  StreamTransport(std::istream& in, std::ostream& out);

  std::unique_ptr<Connection> accept() override;
  void shutdown() override { done_ = true; }

 private:
  std::istream& in_;
  std::ostream& out_;
  std::atomic<bool> done_{false};  // shutdown() may come from a session
};

/// Unix-domain / loopback-TCP listening transport.
class SocketListener final : public Transport {
 public:
  /// Binds and listens.  For Unix sockets a stale path left by a previous
  /// crash is unlinked first.  For TCP, port 0 binds an ephemeral port;
  /// `bound_port()` reports the actual one.  Throws `ContractError` when
  /// the endpoint cannot be bound.
  /// `idle_timeout_ms` bounds how long a connection read may block with no
  /// client traffic (0 = no limit).
  explicit SocketListener(const ListenAddress& addr, int idle_timeout_ms = 0);
  ~SocketListener() override;

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  std::unique_ptr<Connection> accept() override;
  void shutdown() override;
  /// The bound endpoint ("unix:PATH", "tcp:HOST:PORT") for messages.
  std::string describe() const;

  std::uint16_t bound_port() const { return bound_port_; }

 private:
  void close_all();

  ListenAddress addr_;
  int idle_timeout_ms_;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;   ///< poll'd alongside every blocking fd
  int wake_write_fd_ = -1;  ///< shutdown() writes here; signal-safe
  std::uint16_t bound_port_ = 0;
  bool unlink_on_close_ = false;
};

}  // namespace t1map::serve
