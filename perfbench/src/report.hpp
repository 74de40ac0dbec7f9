/// \file report.hpp
/// \brief What one benchmark run measured, and how it is printed.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the trace and the run record (created when missing).
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One pass of a workload: its operations' latencies and wall time, as
/// measured, and the `HostSpeed` scale that puts them on the reference host.
struct PassTimes {
  std::vector<double> latency_ms;
  double seconds = 0.0;
  double scale = 1.0;
};

struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Named correctness failures (the first few of each kind are kept).
  std::vector<std::string> failures;

  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Deterministic work counters, kept apart from the times so they can be
  /// compared exactly.
  std::vector<std::pair<std::string, std::int64_t>> counters;
  /// Host and input facts: nproc, compiler, build type, seed, digests.
  std::vector<std::pair<std::string, std::string>> facts;
  /// Free-form lines for the human-readable part of the output.
  std::vector<std::string> notes;

  bool correct() const { return failed == 0 && failures.empty(); }

  /// Counts one operation; a false `ok` counts it failed and records `what`.
  void op(bool ok, const std::string& what);
  /// Records a failure that is not tied to one operation.
  void fail(const std::string& what);

  void metric(std::string name, double value, std::string unit);
  /// Adds `ops_per_s`, `op_p50_ms` and `op_p99_ms`, each the median over
  /// the passes of that pass's figure on the reference host, so that a
  /// burst of noise from other tenants of the machine moves few passes and
  /// not the result.  Notes give the same figures unscaled, the scales, and
  /// the sample count, quartiles and the highest percentile the count
  /// supports over all operations.
  void pass_metrics(const std::vector<PassTimes>& passes);
};

/// Prints the human-readable lines, then the result object as the last
/// line of standard output; writes the run record under `opt.out_dir`.
void print_report(const Options& opt, const Report& report);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Seconds elapsed since `start` on the steady clock.
double seconds_since(std::int64_t start_ns);
std::int64_t now_ns();

/// Median of a small set of set-up repetitions.
double median_of(std::vector<double> values);

}  // namespace perfbench
