#include "serve/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>
#include <utility>

#include "common/require.hpp"

namespace t1map::serve {

namespace {

/// Sets O_NONBLOCK; connection reads multiplex the wake pipe via poll and
/// must never sleep inside read(2) itself.
void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  T1MAP_REQUIRE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                "cannot make socket non-blocking");
}

/// One accepted socket client.  Reads are poll-driven over the socket and
/// the listener's wake pipe; writes are buffered and pushed with
/// MSG_NOSIGNAL so a vanished peer is an error return, not a SIGPIPE.
class SocketConnection final : public Connection {
 public:
  SocketConnection(int fd, int wake_fd, int idle_timeout_ms)
      : fd_(fd), wake_fd_(wake_fd), idle_timeout_ms_(idle_timeout_ms) {
    set_nonblocking(fd_);
  }

  ~SocketConnection() override {
    const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
    if (fd >= 0) ::close(fd);
  }

  ReadResult read_line(std::string& line, bool wait) override {
    for (;;) {
      if (take_line(line)) return ReadResult::kLine;
      if (eof_) return ReadResult::kClosed;

      // Buffer exhausted: try to refill without sleeping first.
      const int fill = fill_buffer();
      if (fill > 0) continue;
      if (fill < 0) {
        eof_ = true;
        return take_line(line) ? ReadResult::kLine : ReadResult::kClosed;
      }
      if (!wait) return ReadResult::kIdle;

      const int fd = fd_.load(std::memory_order_acquire);
      if (fd < 0) return ReadResult::kClosed;
      struct pollfd fds[2] = {{fd, POLLIN, 0}, {wake_fd_, POLLIN, 0}};
      const int timeout = idle_timeout_ms_ > 0 ? idle_timeout_ms_ : -1;
      const int rc = ::poll(fds, 2, timeout);
      if (rc < 0) {
        if (errno == EINTR) continue;
        return ReadResult::kClosed;
      }
      if (rc == 0) return ReadResult::kClosed;  // idle timeout
      // The wake pipe is level-triggered (shutdown never drains it), so
      // a pending shutdown wins even when the socket is also readable.
      if ((fds[1].revents & POLLIN) != 0) return ReadResult::kClosed;
      // Socket readable (or error/hup — the next read(2) reports which).
    }
  }

  void write(const std::string& data) override { out_ += data; }

  bool flush() override {
    if (broken_) return false;
    std::size_t sent = 0;
    while (sent < out_.size()) {
      const int fd = fd_.load(std::memory_order_acquire);
      if (fd < 0) {
        broken_ = true;
        break;
      }
      const ssize_t n = ::send(fd, out_.data() + sent, out_.size() - sent,
                               MSG_NOSIGNAL);
      if (n >= 0) {
        sent += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        struct pollfd pfd = {fd, POLLOUT, 0};
        if (::poll(&pfd, 1, -1) < 0 && errno != EINTR) broken_ = true;
        if (broken_) break;
        continue;
      }
      broken_ = true;  // EPIPE, ECONNRESET, ...
      break;
    }
    out_.erase(0, sent);
    return !broken_;
  }

  void abort() override {
    const int fd = fd_.load(std::memory_order_acquire);
    // Shut down both directions but leave the fd open: the owning session
    // thread still holds it and will observe EOF on its next read.
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }

 private:
  /// Moves the next complete line out of the buffer.  Returns false when
  /// no terminated line is buffered (a trailing unterminated line is
  /// surfaced only at EOF, matching std::getline).
  bool take_line(std::string& line) {
    const std::size_t nl = buf_.find('\n', scan_);
    if (nl != std::string::npos) {
      line.assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      scan_ = 0;
      return true;
    }
    scan_ = buf_.size();
    if (eof_ && !buf_.empty()) {
      line = std::move(buf_);
      buf_.clear();
      scan_ = 0;
      return true;
    }
    return false;
  }

  /// Non-blocking refill: >0 bytes read, 0 would-block, <0 EOF/error.
  int fill_buffer() {
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0) return -1;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n > 0) {
        buf_.append(chunk, static_cast<std::size_t>(n));
        return static_cast<int>(n);
      }
      if (n == 0) return -1;
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
      return -1;
    }
  }

  std::atomic<int> fd_;
  const int wake_fd_;
  const int idle_timeout_ms_;
  std::string buf_;
  std::size_t scan_ = 0;  // resume point for the newline search
  std::string out_;
  bool eof_ = false;
  bool broken_ = false;
};

/// The stream pair as a Connection.  `read_line(..., wait=false)` keeps
/// the historical batching contract: a batch flushes once the stream has
/// no buffered input.
class StreamConnection final : public Connection {
 public:
  StreamConnection(std::istream& in, std::ostream& out) : in_(in), out_(out) {}

  ReadResult read_line(std::string& line, bool wait) override {
    if (!wait && in_.rdbuf()->in_avail() <= 0) return ReadResult::kIdle;
    if (!std::getline(in_, line)) return ReadResult::kClosed;
    return ReadResult::kLine;
  }

  void write(const std::string& data) override { out_ << data; }
  bool flush() override {
    out_.flush();
    return static_cast<bool>(out_);
  }
  void abort() override {}

 private:
  std::istream& in_;
  std::ostream& out_;
};

}  // namespace

ListenAddress parse_listen_address(const std::string& spec) {
  T1MAP_REQUIRE(!spec.empty(), "--serve-listen needs an address");
  ListenAddress addr;
  if (spec.rfind("unix:", 0) == 0) {
    addr.kind = ListenAddress::Kind::kUnix;
    addr.path = spec.substr(5);
    T1MAP_REQUIRE(!addr.path.empty(), "unix listen address needs a path");
    return addr;
  }
  std::string hostport = spec;
  if (spec.rfind("tcp:", 0) == 0) hostport = spec.substr(4);
  const std::size_t colon = hostport.rfind(':');
  T1MAP_REQUIRE(colon != std::string::npos && colon + 1 < hostport.size(),
                "tcp listen address must be HOST:PORT: " + spec);
  addr.kind = ListenAddress::Kind::kTcp;
  addr.host = hostport.substr(0, colon);
  if (addr.host.empty()) addr.host = "127.0.0.1";
  const std::string port_str = hostport.substr(colon + 1);
  unsigned long port = 0;
  std::size_t pos = 0;
  try {
    port = std::stoul(port_str, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;
  }
  T1MAP_REQUIRE(pos == port_str.size() && port <= 65535,
                "bad port in listen address: " + spec);
  addr.port = static_cast<std::uint16_t>(port);
  return addr;
}

StreamTransport::StreamTransport(std::istream& in, std::ostream& out)
    : in_(in), out_(out) {}

std::unique_ptr<Connection> StreamTransport::accept() {
  if (done_) return nullptr;
  done_ = true;
  return std::make_unique<StreamConnection>(in_, out_);
}

SocketListener::SocketListener(const ListenAddress& addr, int idle_timeout_ms)
    : addr_(addr), idle_timeout_ms_(idle_timeout_ms) {
  int pipe_fds[2];
  T1MAP_REQUIRE(::pipe(pipe_fds) == 0, "cannot create shutdown pipe");
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];

  if (addr_.kind == ListenAddress::Kind::kUnix) {
    struct sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    T1MAP_REQUIRE(addr_.path.size() < sizeof sa.sun_path,
                  "unix socket path too long: " + addr_.path);
    std::memcpy(sa.sun_path, addr_.path.c_str(), addr_.path.size() + 1);

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    T1MAP_REQUIRE(listen_fd_ >= 0, "cannot create unix socket");
    // A path left by a crashed server would fail the bind; a *live*
    // server would too, but then the unlink steals its address — the
    // operator owns exclusivity of the path, as with every unix service.
    ::unlink(addr_.path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&sa),
               sizeof sa) != 0) {
      const std::string err = std::strerror(errno);
      close_all();
      T1MAP_REQUIRE(false, "cannot bind " + addr_.path + ": " + err);
    }
    unlink_on_close_ = true;
  } else {
    struct sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(addr_.port);
    const std::string& host = addr_.host;
    if (host == "localhost" || host.empty()) {
      sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    } else if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
      close_all();
      T1MAP_REQUIRE(false, "bad listen host (numeric IPv4 or localhost): " +
                               host);
    }

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    T1MAP_REQUIRE(listen_fd_ >= 0, "cannot create tcp socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&sa),
               sizeof sa) != 0) {
      const std::string err = std::strerror(errno);
      close_all();
      T1MAP_REQUIRE(false, "cannot bind " + describe() + ": " + err);
    }
    struct sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                      &len) == 0) {
      bound_port_ = ntohs(bound.sin_port);
    }
  }

  if (::listen(listen_fd_, 64) != 0) {
    const std::string err = std::strerror(errno);
    close_all();
    T1MAP_REQUIRE(false, "cannot listen on " + describe() + ": " + err);
  }
}

void SocketListener::close_all() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
}

SocketListener::~SocketListener() {
  close_all();
  if (unlink_on_close_) ::unlink(addr_.path.c_str());
}

std::unique_ptr<Connection> SocketListener::accept() {
  for (;;) {
    struct pollfd fds[2] = {{listen_fd_, POLLIN, 0},
                            {wake_read_fd_, POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return nullptr;
    }
    if ((fds[1].revents & POLLIN) != 0) return nullptr;  // shutdown
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return nullptr;
    }
    if (addr_.kind == ListenAddress::Kind::kTcp) {
      const int one = 1;
      ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    return std::make_unique<SocketConnection>(client, wake_read_fd_,
                                              idle_timeout_ms_);
  }
}

void SocketListener::shutdown() {
  // One byte, never drained: the pipe stays readable so *every* poll on
  // it — the accept loop and each blocked connection — wakes, now and
  // later.  write(2) on a pipe is async-signal-safe.
  const char byte = 'q';
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

std::string SocketListener::describe() const {
  if (addr_.kind == ListenAddress::Kind::kUnix) return "unix:" + addr_.path;
  const std::uint16_t port = bound_port_ != 0 ? bound_port_ : addr_.port;
  return "tcp:" + (addr_.host.empty() ? "127.0.0.1" : addr_.host) + ":" +
         std::to_string(port);
}

}  // namespace t1map::serve
