#include "host_speed.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "report.hpp"

namespace perfbench {

namespace {

/// Keeps the kernel's result alive so the compiler cannot drop the work.
volatile std::uint64_t g_sink = 0;

/// The fixed kernel: sort 100k xorshift numbers, fill a hash map with 25k
/// of them and look all 100k up.  The same work on every call.
void kernel() {
  constexpr std::size_t kValues = 100000;
  constexpr std::uint32_t kKeys = 25000;
  std::vector<std::uint64_t> v(kValues);
  std::uint64_t x = 88172645463325252ull;
  for (std::uint64_t& e : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    e = x;
  }
  std::sort(v.begin(), v.end());
  std::unordered_map<std::uint64_t, std::uint32_t> map;
  for (std::uint32_t i = 0; i < kKeys; ++i) map.emplace(v[i * 4] >> 7, i);
  std::uint64_t h = 0;
  for (const std::uint64_t e : v) {
    const auto it = map.find(e >> 7);
    if (it != map.end()) h += it->second;
  }
  g_sink = g_sink + h;
}

}  // namespace

void HostSpeed::sample() {
  const std::int64_t start = now_ns();
  kernel();
  last_at_ = now_ns();
  const double ms = 1e-6 * static_cast<double>(last_at_ - start);
  span_.push_back(ms);
  all_.push_back(ms);
}

void HostSpeed::begin() {
  const bool recent = !all_.empty() && seconds_since(last_at_) < kIntervalS;
  span_.clear();
  if (recent) {
    span_.push_back(all_.back());
  } else {
    sample();
  }
}

void HostSpeed::tick() {
  if (seconds_since(last_at_) >= kIntervalS) sample();
}

double HostSpeed::end() {
  sample();
  return kReferenceMs / median_of(span_);
}

}  // namespace perfbench
