#include "report.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "io/json.hpp"

namespace perfbench {

namespace {

/// Keeps the output readable when one defect fails thousands of operations.
constexpr std::size_t kMaxFailuresKept = 20;

void write_metrics(t1map::io::JsonWriter& w, const std::vector<Metric>& ms) {
  w.begin_object();
  for (const Metric& m : ms) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value).key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
}

void write_counters(
    t1map::io::JsonWriter& w,
    const std::vector<std::pair<std::string, std::int64_t>>& counters) {
  w.begin_object();
  for (const auto& [name, value] : counters) {
    w.key(name).value(static_cast<double>(value));
  }
  w.end_object();
}

}  // namespace

void Report::op(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < kMaxFailuresKept) failures.push_back(what);
}

void Report::fail(const std::string& what) {
  // A full list is non-empty, so the run stays marked incorrect either way.
  if (failures.size() < kMaxFailuresKept) failures.push_back(what);
}

void Report::metric(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::pass_metrics(const std::vector<PassTimes>& passes) {
  std::vector<double> rate, p50, p99;            // on the reference host
  std::vector<double> raw_rate, raw_p50, raw_p99;  // as measured
  std::vector<double> scales;
  std::vector<double> all;
  for (const PassTimes& pass : passes) {
    const Summary s = summarize(pass.latency_ms);
    raw_rate.push_back(static_cast<double>(s.count) / pass.seconds);
    raw_p50.push_back(s.median);
    raw_p99.push_back(s.p99);
    rate.push_back(raw_rate.back() / pass.scale);
    p50.push_back(s.median * pass.scale);
    p99.push_back(s.p99 * pass.scale);
    scales.push_back(pass.scale);
    for (const double ms : pass.latency_ms) all.push_back(ms * pass.scale);
  }
  metric("ops_per_s", median_of(rate), "1/s");
  metric("op_p50_ms", median_of(p50), "ms");
  metric("op_p99_ms", median_of(p99), "ms");

  std::ostringstream os;
  os << "unscaled wall clock: ops_per_s=" << median_of(raw_rate)
     << " op_p50_ms=" << median_of(raw_p50)
     << " op_p99_ms=" << median_of(raw_p99) << " (medians over passes)";
  notes.push_back(os.str());
  os.str("");
  const Summary sc = summarize(scales);
  os << "host speed scale over passes: min=" << sc.min << " q1=" << sc.q1
     << " median=" << sc.median << " q3=" << sc.q3 << " max=" << sc.max;
  notes.push_back(os.str());
  os.str("");
  const Summary r = summarize(rate);
  os << "ops_per_s over passes: min=" << r.min << " q1=" << r.q1
     << " median=" << r.median << " q3=" << r.q3 << " max=" << r.max;
  notes.push_back(os.str());
  os.str("");
  const Summary s = summarize(all);
  os << passes.size() << " passes, " << s.count
     << " operations, ms on the reference host: q1="
     << s.q1 << " median=" << s.median << " q3=" << s.q3 << " p99=" << s.p99
     << " max=" << s.max << " ms; highest percentile with >=10 samples "
     << "beyond it: ";
  if (s.tail_pct > 0.0) {
    os << "p" << s.tail_pct << "=" << s.tail << " ms";
  } else {
    os << "none";
  }
  notes.push_back(os.str());
}

void print_report(const Options& opt, const Report& report) {
  std::ostream& out = std::cout;
  out << "# perfbench workload=" << opt.workload << " seed=" << opt.seed
      << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0)
      << '\n';
  for (const auto& [key, value] : report.facts) {
    if (key.rfind("input.", 0) == 0) continue;  // digests: record file only
    out << "fact " << key << ' ' << value << '\n';
  }
  for (const std::string& note : report.notes) out << "note " << note << '\n';
  for (const std::string& f : report.failures) out << "FAILED " << f << '\n';
  out << "failed_share "
      << (report.attempted > 0 ? static_cast<double>(report.failed) /
                                     static_cast<double>(report.attempted)
                               : 1.0)
      << " (" << report.failed << " of " << report.attempted << ")\n";
  for (const Metric& m : report.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", m.value);
    out << "metric " << m.name << ' ' << buf << ' ' << m.unit << '\n';
  }
  {
    std::ostringstream os;
    t1map::io::JsonWriter w(os);
    write_counters(w, report.counters);
    out << "counters " << os.str() << '\n';
  }

  // The run record: everything above, plus every input digest.
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           (opt.trace ? "1" : "0") + ".json";
  std::ofstream record(path);
  if (record) {
    t1map::io::JsonWriter w(record);
    w.begin_object();
    w.key("workload").value(opt.workload);
    w.key("facts").begin_object();
    for (const auto& [key, value] : report.facts) w.key(key).value(value);
    w.end_object();
    w.key("counters");
    write_counters(w, report.counters);
    w.key("metrics");
    write_metrics(w, report.metrics);
    w.key("failures").begin_array();
    for (const std::string& f : report.failures) w.value(f);
    w.end_array();
    w.end_object();
    record << '\n';
    out << "record " << path << '\n';
  }

  // The result object, last line of standard output.
  std::ostringstream os;
  t1map::io::JsonWriter w(os);
  w.begin_object();
  w.key("correct").value(report.correct());
  w.key("attempted").value(static_cast<double>(report.attempted));
  w.key("failed").value(static_cast<double>(report.failed));
  w.key("metrics");
  write_metrics(w, report.metrics);
  w.end_object();
  out << os.str() << std::endl;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return 1e-9 * static_cast<double>(now_ns() - start_ns);
}

double median_of(std::vector<double> values) {
  return summarize(std::move(values)).median;
}

}  // namespace perfbench
