/// \file host_speed.hpp
/// \brief The host's speed, measured by a fixed kernel that runs no t1map
/// code, and the scale that puts the benchmark's times on a reference host.
///
/// On a shared machine the benchmark's process can keep the CPU the whole
/// time and still run up to 1.7x slower for minutes, because other tenants
/// load the hardware it shares (caches, memory, clock).  Wall-clock medians
/// of runs made minutes apart then differ by more than any useful bound.
/// The kernel here (sorting and hash-table work, allocation included) slows
/// down with the program, so the benchmark samples it around each timed
/// span (a pass, a set-up) and multiplies the span's times by
/// `kReferenceMs / kernel ms`: the times the span would have taken on a
/// host where the kernel takes `kReferenceMs`.  The raw wall-clock figures
/// are printed beside them.

#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  /// Kernel time that defines the reference host, in ms: about its time on
  /// a quiet 4-vCPU host of the kind the benchmark was tuned on.
  static constexpr double kReferenceMs = 10.0;
  /// Between two samples of one span at least this much time passes.
  static constexpr double kIntervalS = 0.25;

  /// Starts a span: samples now, unless the last sample is more recent than
  /// `kIntervalS` (then it is the span's first sample).
  void begin();
  /// Samples when the span's last sample is older than `kIntervalS`.  Call
  /// it between operations, outside their timing.
  void tick();
  /// Ends the span with a sample and returns its scale: `kReferenceMs` over
  /// the median kernel time of the span's samples.
  double end();

  /// Every kernel time sampled so far, in ms.
  const std::vector<double>& samples() const { return all_; }

 private:
  void sample();

  std::vector<double> span_;
  std::vector<double> all_;
  std::int64_t last_at_ = 0;  // steady-clock ns of the last sample
};

}  // namespace perfbench
