#include "trace.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench {

Tracer::Span::Span(Tracer& tracer, const char* name)
    : tracer_(tracer), index_(tracer.events_.size()) {
  const std::int64_t parent =
      tracer.open_.empty() ? -1 : static_cast<std::int64_t>(tracer.open_.back());
  tracer.events_.push_back(Event{name, tracer.now_ns(), 0, parent, tracer.op_});
  tracer.open_.push_back(index_);
}

Tracer::Span::~Span() {
  tracer_.events_[index_].end_ns = tracer_.now_ns();
  tracer_.open_.pop_back();
}

Tracer::Tracer() : epoch_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::map<std::string, double> Tracer::self_ms(const std::string& root) const {
  std::vector<std::int64_t> child_ns(events_.size(), 0);
  // A span is recorded when it opens, so its parent always comes first.
  std::vector<std::size_t> root_of(events_.size(), 0);
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (e.parent >= 0) {
      const std::size_t parent = static_cast<std::size_t>(e.parent);
      child_ns[parent] += e.end_ns - e.start_ns;
      root_of[i] = root_of[parent];
    } else {
      root_of[i] = i;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (!root.empty() && root != events_[root_of[i]].name) continue;
    out[e.name] += 1e-6 * static_cast<double>(e.end_ns - e.start_ns -
                                              child_ns[i]);
  }
  return out;
}

double Tracer::total_ms(const std::string& name) const {
  double ms = 0.0;
  for (const Event& e : events_) {
    if (name == e.name) ms += 1e-6 * static_cast<double>(e.end_ns - e.start_ns);
  }
  return ms;
}

bool Tracer::write_chrome(const std::string& path,
                          std::size_t max_events) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const std::size_t n = std::min(max_events, events_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Event& e = events_[i];
    // Complete events ("ph":"X"); timestamps and durations in microseconds.
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << e.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(e.start_ns) * 1e-3
       << ",\"dur\":" << static_cast<double>(e.end_ns - e.start_ns) * 1e-3
       << ",\"args\":{\"op\":" << e.op << ",\"parent\":" << e.parent << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
