/// \file trace.hpp
/// \brief In-memory span recorder for the traced benchmark run.
///
/// Spans are recorded by the benchmark around its own calls into the
/// library's public layer functions; nothing inside the library is
/// instrumented.  Spans nest (a span opened while another is open is its
/// child), carry the identifier of the operation they belong to, and are
/// written out as Chrome trace-event JSON when the run ends, which
/// Perfetto (ui.perfetto.dev) and chrome://tracing open directly.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// RAII span: opened by `Tracer::span`, closed on destruction.
  class Span {
   public:
    Span(Tracer& tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  Tracer();

  /// Tags every span opened from now on with operation `op`.
  void set_op(std::uint64_t op) { op_ = op; }

  /// Span name -> summed self time (duration minus the part covered by
  /// child spans), in milliseconds; with `root`, only over spans whose
  /// outermost enclosing span is named `root`.
  std::map<std::string, double> self_ms(const std::string& root = {}) const;
  /// Summed duration of every span named `name`, in milliseconds.
  double total_ms(const std::string& name) const;

  /// Writes the first `max_events` spans as Chrome trace-event JSON.
  /// Returns false when the file cannot be written.
  bool write_chrome(const std::string& path, std::size_t max_events) const;

  std::size_t size() const { return events_.size(); }

 private:
  struct Event {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;  // index into events_, -1 for a root span
    std::uint64_t op;
  };

  std::int64_t now_ns() const;

  Clock::time_point epoch_;
  std::vector<Event> events_;
  std::vector<std::size_t> open_;
  std::uint64_t op_ = 0;
};

}  // namespace perfbench
