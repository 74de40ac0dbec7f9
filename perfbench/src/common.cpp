#include <sstream>
#include <thread>
#include <utility>

#include "host_speed.hpp"
#include "serve/aig_hash.hpp"
#include "serve/json_out.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in report order.
constexpr MetricDef kLayerMetrics[] = {
    {"cut.enum_ms", "ms"},
    {"cut.cuts", "count"},
    {"sfq.map.ms", "ms"},
    {"sfq.map.cells", "count"},
    {"t1.detect.ms", "ms"},
    {"t1.detect.found", "count"},
    {"t1.detect.used", "count"},
    {"t1.detect.used_ratio", "ratio"},
    {"t1.rewrite.ms", "ms"},
    {"t1.rewrite.cell_area_delta", "JJ"},
    {"retime.stage.ms", "ms"},
    {"retime.stage.dffs_regular", "count"},
    {"retime.stage.dffs_t1", "count"},
    {"retime.dff.ms", "ms"},
    {"retime.timing.ms", "ms"},
    {"sfq.sim.ms", "ms"},
    {"sat.cec.ms", "ms"},
    {"sat.cec.conflicts", "count"},
    {"sat.cec.decisions", "count"},
    {"sat.cec.propagations", "count"},
    {"sat.cec.proved", "count"},
    {"sat.cec.unknown", "count"},
    {"sat.cec.verified_share", "ratio"},
    {"gen.make.ms", "ms"},
    {"serve.hash.ms", "ms"},
    {"io.aiger.parse_ms", "ms"},
    {"serve.codec.encode_ms", "ms"},
    {"serve.codec.decode_ms", "ms"},
    {"serve.codec.bytes", "bytes"},
    {"serve.cache.hit_ratio", "ratio"},
    {"serve.cache.memory_hits", "count"},
    {"serve.cache.disk_hits", "count"},
    {"serve.cache.evictions", "count"},
    {"t1.memo.map_reuse_ratio", "ratio"},
    {"t1.memo.map_cones_total", "count"},
    {"trace.op_ms", "ms"},
    {"trace.untraced_op_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"trace.accounted_share", "ratio"},
};

/// Layer span -> its self-time metric.
constexpr std::pair<const char*, const char*> kSpanMetrics[] = {
    {"cut.enum", "cut.enum_ms"},
    {"sfq.map", "sfq.map.ms"},
    {"t1.detect", "t1.detect.ms"},
    {"t1.rewrite", "t1.rewrite.ms"},
    {"retime.stage", "retime.stage.ms"},
    {"retime.dff", "retime.dff.ms"},
    {"retime.timing", "retime.timing.ms"},
    {"sfq.sim", "sfq.sim.ms"},
    {"sat.cec", "sat.cec.ms"},
    {"gen.make", "gen.make.ms"},
    {"serve.hash", "serve.hash.ms"},
    {"io.aiger.parse", "io.aiger.parse_ms"},
    {"serve.codec.encode", "serve.codec.encode_ms"},
    {"serve.codec.decode", "serve.codec.decode_ms"},
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

SetupTime timed_setup(HostSpeed& speed, const std::function<void()>& setup) {
  // Several set-ups spread over a second, so that one burst of noise from
  // other tenants of the machine cannot move the median.
  constexpr int kMinReps = 3;
  constexpr double kMinSeconds = 1.0;
  std::vector<double> scaled;
  std::vector<double> raw;
  const std::int64_t start = now_ns();
  while (static_cast<int>(raw.size()) < kMinReps ||
         seconds_since(start) < kMinSeconds) {
    speed.begin();
    const std::int64_t t0 = now_ns();
    setup();
    raw.push_back(seconds_since(t0));
    scaled.push_back(raw.back() * speed.end());
  }
  return SetupTime{median_of(scaled), median_of(raw),
                   static_cast<int>(raw.size())};
}

void report_setup(Report& report, const SetupTime& setup,
                  const HostSpeed& speed) {
  report.metric("setup_s", setup.seconds, "s");
  const Summary k = summarize(speed.samples());
  std::ostringstream os;
  os << "host speed kernel: " << k.count << " samples, q1=" << k.q1
     << " median=" << k.median << " q3=" << k.q3 << " ms (reference "
     << HostSpeed::kReferenceMs << " ms)";
  report.notes.push_back(os.str());
  os.str("");
  os << "setup_s is the median of " << setup.reps << " set-ups; unscaled "
     << setup.raw_seconds << " s";
  report.notes.push_back(os.str());
}

std::string stats_text(const t1map::t1::FlowStats& stats) {
  std::ostringstream os;
  t1map::io::JsonWriter w(os);
  w.value(t1map::serve::flow_stats_json(stats));
  return os.str();
}

void add_host_facts(const Options& opt, Report& report) {
  report.facts.emplace_back("nproc",
                            std::to_string(std::thread::hardware_concurrency()));
  report.facts.emplace_back("compiler", PERFBENCH_COMPILER);
  report.facts.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
  report.facts.emplace_back("seed", std::to_string(opt.seed));
}

void add_input_digest(Report& report, const std::string& name,
                      const t1map::Aig& aig) {
  report.facts.emplace_back("input." + name,
                            t1map::serve::hash_aig(aig).hex());
}

void add_layer_values(LayerValues& values, Report& report,
                      const Tracer& tracer, const char* op_span,
                      std::int64_t traced_ops, double untraced_op_ms,
                      const LayerCounters& counters) {
  const double ops = static_cast<double>(traced_ops);
  const std::map<std::string, double> self = tracer.self_ms();
  for (const auto& [span, metric] : kSpanMetrics) {
    const auto it = self.find(span);
    values[metric] = ratio(it != self.end() ? it->second : 0.0, ops);
  }
  // The accounted share counts only layer calls inside the operations, not
  // the probes, and leaves the overhead out: a layer call missing from the
  // re-enactment, or work the engine does besides its layer calls, moves it
  // away from 1.
  double layer_ms = 0.0;
  for (const auto& [span, ms] : tracer.self_ms(op_span)) {
    if (span != op_span) layer_ms += ms;
  }
  const double op_ms = ratio(tracer.total_ms(op_span), ops);
  values["trace.op_ms"] = op_ms;
  values["trace.untraced_op_ms"] = untraced_op_ms;
  values["trace.overhead_ms"] = op_ms - untraced_op_ms;
  values["trace.accounted_share"] = ratio(ratio(layer_ms, ops), untraced_op_ms);

  for (const auto& [name, value] : counters.named()) {
    values[name] = static_cast<double>(value);
    report.counters.emplace_back(name, value);
  }
  values["t1.detect.used_ratio"] =
      ratio(static_cast<double>(counters.t1_used),
            static_cast<double>(counters.t1_found));
  values["sat.cec.verified_share"] =
      ratio(static_cast<double>(counters.cec_proved),
            static_cast<double>(counters.cec_calls));
}

void emit_layer_metrics(Report& report, const LayerValues& values) {
  for (const MetricDef& def : kLayerMetrics) {
    const auto it = values.find(def.name);
    report.metric(def.name, it != values.end() ? it->second : 0.0, def.unit);
  }
}

void write_trace(const Options& opt, const Tracer& tracer, Report& report) {
  // Enough spans for Perfetto to show many whole operations while keeping
  // the file in the tens of megabytes.
  constexpr std::size_t kMaxTraceEvents = 100000;
  const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".trace.json";
  if (tracer.write_chrome(path, kMaxTraceEvents)) {
    report.notes.push_back("trace " + path + " (" +
                           std::to_string(tracer.size()) + " spans)");
  } else {
    report.fail("cannot write trace file " + path);
  }
}

}  // namespace perfbench
