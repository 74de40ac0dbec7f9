// perfbench: the t1map benchmark.  Runs one workload for a given time and
// prints its metrics, ending with one JSON result line.
//
//   perfbench --workload table1-map|verify|serve-mix --seed N --seconds S
//             --trace 0|1 [--out DIR]
//
// --trace 0 measures the end-to-end metrics; --trace 1 makes the separate
// traced run that gives the per-layer metrics and writes a Chrome trace.
// Exit status: 0 when every output was correct, 1 on a correctness failure
// or an error, 2 on a usage error.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload table1-map|verify|serve-mix "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n";
  return 2;
}

bool parse_number(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    double number = 0.0;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--out") {
      opt.out_dir = value;
    } else if (!parse_number(value, number)) {
      return usage("bad number '" + value + "' for " + arg);
    } else if (arg == "--seed" && number >= 0) {
      opt.seed = static_cast<std::uint64_t>(number);
    } else if (arg == "--seconds" && number > 0) {
      opt.seconds = number;
    } else if (arg == "--trace" && (number == 0 || number == 1)) {
      opt.trace = number == 1;
    } else {
      return usage("bad argument " + arg + " " + value);
    }
  }

  perfbench::Report (*run)(const perfbench::Options&) = nullptr;
  if (opt.workload == "table1-map") run = perfbench::run_table1_map;
  if (opt.workload == "verify") run = perfbench::run_verify;
  if (opt.workload == "serve-mix") run = perfbench::run_serve_mix;
  if (run == nullptr) return usage("unknown workload '" + opt.workload + "'");

  try {
    const perfbench::Report report = run(opt);
    perfbench::print_report(opt, report);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << '\n';
    return 1;
  }
}
