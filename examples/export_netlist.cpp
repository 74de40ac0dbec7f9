// Tooling example: run the flow on a small multiplier and export the
// mapped T1 netlist as BLIF (interchange) and the retimed result as
// Graphviz DOT with stage annotations — handy for inspecting how the
// retimer staggers T1 input arrivals.
//
//   $ ./examples/export_netlist out.blif out.dot

#include <fstream>
#include <iostream>

#include "gen/arith.hpp"
#include "io/blif.hpp"
#include "io/dot.hpp"
#include "t1/flow_engine.hpp"

int main(int argc, char** argv) {
  using namespace t1map;
  const std::string blif_path = argc > 1 ? argv[1] : "mult4_t1.blif";
  const std::string dot_path = argc > 2 ? argv[2] : "mult4_t1.dot";

  const Aig mult = gen::array_multiplier(4);
  t1::FlowParams params;
  params.num_phases = 4;
  t1::FlowEngine engine;
  const t1::EngineResult r = engine.run(mult, params);
  if (!r.ok()) {
    std::cerr << "flow failed:\n" << r.diagnostics.to_string();
    return 1;
  }

  {
    std::ofstream os(blif_path);
    io::write_blif(os, r.mapped, "mult4_t1");
  }
  {
    std::ofstream os(dot_path);
    io::write_dot(os, r.materialized.netlist, &r.materialized.stages);
  }

  std::cout << "4x4 multiplier: " << r.stats.t1_used << " T1 cells, "
            << r.stats.dffs << " DFFs, " << r.stats.area_jj << " JJ\n"
            << "wrote " << blif_path << " (mapped netlist, BLIF) and "
            << dot_path << " (retimed netlist + stages, DOT)\n";
  return 0;
}
