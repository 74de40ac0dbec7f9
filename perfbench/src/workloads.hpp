/// \file workloads.hpp
/// \brief The benchmark's workloads and the helpers they share.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "aig/aig.hpp"
#include "host_speed.hpp"
#include "layers.hpp"
#include "report.hpp"
#include "t1/flow.hpp"

namespace perfbench {

/// The Table-I circuits x {1phi, 4phi, 4phi+T1}, default flow without CEC,
/// one non-incremental `FlowEngine`, serial closed loop.
Report run_table1_map(const Options& opt);

/// The T1 configuration with CEC under a fixed per-circuit conflict
/// budget, over circuits that prove and Table-I circuits that exhaust it.
Report run_verify(const Options& opt);

/// An in-process `serve::Server` on a loopback socket, one client keeping
/// a window of requests in flight: popular repeats, fresh designs and
/// one-gate edit chains.
Report run_serve_mix(const Options& opt);

/// Median time of one set-up, and the number of set-ups.
struct SetupTime {
  double seconds = 0.0;      // on the reference host (`HostSpeed`)
  double raw_seconds = 0.0;  // as measured
  int reps = 0;
};

/// Runs the workload's set-up `setup` at least three times and for at least
/// one second, sampling `speed` around each, and returns the median time
/// of one set-up.  The products of the last run are the ones the workload
/// uses.
SetupTime timed_setup(HostSpeed& speed, const std::function<void()>& setup);

/// Reports `setup_s`, and notes with its unscaled time and the quartiles
/// of every kernel time `speed` sampled.
void report_setup(Report& report, const SetupTime& setup,
                  const HostSpeed& speed);

/// Canonical text of the Table-I statistics block, as the serve protocol
/// renders it: the byte-level oracle for stats equality.
std::string stats_text(const t1map::t1::FlowStats& stats);

/// Records nproc, compiler, build type and seed.
void add_host_facts(const Options& opt, Report& report);

/// Records the `AigHasher` digest of one input circuit.
void add_input_digest(Report& report, const std::string& name,
                      const t1map::Aig& aig);

/// Per-layer metric values of a traced run, by metric name.
using LayerValues = std::map<std::string, double>;

/// Fills `values` with the self milliseconds per operation of every layer
/// span; the traced time per operation (root span `op_span`), its
/// difference from `untraced_op_ms` (the overhead), and the share of
/// `untraced_op_ms` the layer self times account for; and the deterministic
/// `counters` (which also go to `report.counters`).
void add_layer_values(LayerValues& values, Report& report,
                      const Tracer& tracer, const char* op_span,
                      std::int64_t traced_ops, double untraced_op_ms,
                      const LayerCounters& counters);

/// Emits every per-layer metric in a fixed order; a metric the workload
/// does not exercise reports 0.
void emit_layer_metrics(Report& report, const LayerValues& values);

/// Writes the trace of `opt`'s run next to its record.
void write_trace(const Options& opt, const Tracer& tracer, Report& report);

}  // namespace perfbench
