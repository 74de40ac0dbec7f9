// t1map — unified driver for the T1-aware SFQ mapping flow.
//
// Reads a circuit (named generator, AIGER or BLIF), runs the requested
// Table-I configurations (1φ baseline, nφ baseline, nφ + T1), verifies each
// mapped netlist against the source with SAT CEC, and prints a stats report
// as text or JSON.  Optionally exports the final mapped netlist as BLIF/DOT.
//
//   $ t1map --gen adder16 --config all
//   $ t1map --input design.blif --config t1 --json

#include <fstream>
#include <iostream>
#include <sstream>

#include "cli/bench.hpp"
#include "cli/fuzz_cmd.hpp"
#include "cli/options.hpp"
#include "cli/report.hpp"
#include "cli/serve_cmd.hpp"
#include "common/require.hpp"
#include "gen/registry.hpp"
#include "io/aiger.hpp"
#include "io/blif.hpp"
#include "io/dot.hpp"
#include "io/verilog.hpp"

namespace t1map::cli {
namespace {

/// Slurps a path ("-" = stdin) byte-exactly (binary AIGER needs it).
std::string slurp(const std::string& path) {
  std::ostringstream buffer;
  if (path == "-") {
    buffer << std::cin.rdbuf();
  } else {
    std::ifstream ifs(path, std::ios::binary);
    T1MAP_REQUIRE(ifs.good(), "cannot open input file: " + path);
    buffer << ifs.rdbuf();
  }
  return buffer.str();
}

/// Reads the circuit at `path` ("-" = stdin): AIGER when the text starts
/// with either variant's magic word, else BLIF.  `report`, when given,
/// gets the circuit's source and design names.
Aig read_circuit(const std::string& path, Report* report = nullptr) {
  const std::string text = slurp(path);
  const bool aiger = text.rfind("aag ", 0) == 0 || text.rfind("aig ", 0) == 0;
  std::string model_name;
  Aig aig = aiger ? io::read_aiger_string(text)
                  : io::read_blif_string(text, &model_name);
  if (report != nullptr) {
    report->source = (aiger ? "aiger:" : "blif:") + path;
    report->design = aiger ? (path == "-" ? "aiger" : path) : model_name;
  }
  return aig;
}

Aig load_input(const Options& opts, Report& report) {
  if (!opts.gen_name.empty()) {
    report.design = opts.gen_name;
    report.source = "gen:" + opts.gen_name;
    return gen::make_named(opts.gen_name);
  }
  return read_circuit(opts.input_path, &report);
}

void export_netlist(const Options& opts, const ConfigResult& config) {
  if (opts.out_blif.empty() && opts.out_dot.empty() &&
      opts.out_verilog.empty()) {
    return;
  }
  if (!opts.out_blif.empty()) {
    std::ofstream ofs(opts.out_blif);
    T1MAP_REQUIRE(ofs.good(), "cannot open for writing: " + opts.out_blif);
    io::write_blif(ofs, config.flow.materialized.netlist,
                   config.key + "_mapped");
  }
  if (!opts.out_dot.empty()) {
    std::ofstream ofs(opts.out_dot);
    T1MAP_REQUIRE(ofs.good(), "cannot open for writing: " + opts.out_dot);
    io::write_dot(ofs, config.flow.materialized.netlist,
                  &config.flow.materialized.stages);
  }
  if (!opts.out_verilog.empty()) {
    std::ofstream ofs(opts.out_verilog);
    T1MAP_REQUIRE(ofs.good(), "cannot open for writing: " + opts.out_verilog);
    io::write_verilog(ofs, config.flow.materialized.netlist,
                      &config.flow.materialized.stages,
                      config.key + "_mapped");
  }
}

int run(const Options& opts) {
  if (opts.help) {
    std::cout << usage();
    return 0;
  }
  if (opts.list_gens) {
    std::cout << gen::describe_generators();
    return 0;
  }
  if (opts.bench) return run_bench(opts);
  if (opts.serve) return run_serve(opts);
  if (opts.fuzz > 0) return run_fuzz_cmd(opts);

  Report report;
  report.phases = opts.phases;
  const Aig aig = load_input(opts, report);
  if (!opts.out_aiger.empty()) io::write_aiger_file(opts.out_aiger, aig);
  report.num_pis = aig.num_pis();
  report.num_pos = aig.num_pos();
  report.num_ands = aig.num_ands();
  report.depth = aig.depth();

  Aig prime;
  if (!opts.incremental_from.empty()) {
    T1MAP_REQUIRE(opts.incremental_from != "-",
                  "--incremental-from cannot read stdin");
    prime = read_circuit(opts.incremental_from);
    report.incremental_from = opts.incremental_from;
  }
  report.configs =
      run_configs(aig, selected_configs(opts), opts,
                  opts.incremental_from.empty() ? nullptr : &prime);
  T1MAP_REQUIRE(!report.configs.empty(), "no configuration selected");

  // Export the most interesting config: t1 when run, else the last one.
  const ConfigResult* to_export = find_config(report, t1::TableConfig::kT1);
  if (to_export == nullptr) to_export = &report.configs.back();
  export_netlist(opts, *to_export);

  if (opts.json) {
    report_json(report).write(std::cout, 2);
    std::cout << '\n';
  } else {
    std::cout << report_text(report, opts.paper);
  }
  return 0;
}

}  // namespace
}  // namespace t1map::cli

int main(int argc, char** argv) {
  try {
    return t1map::cli::run(t1map::cli::parse_options(argc, argv));
  } catch (const t1map::cli::UsageError& e) {
    std::cerr << "t1map: " << e.what() << "\n\n" << t1map::cli::usage();
    return 2;
  } catch (const t1map::ContractError& e) {
    std::cerr << "t1map: error: " << e.what() << '\n';
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "t1map: unexpected error: " << e.what() << '\n';
    return 1;
  }
}
