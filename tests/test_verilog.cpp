// Structural Verilog exporter tests: an exact golden on a handmade
// netlist, structural consistency on a full T1-mapped adder16, and the
// identifier-sanitization rules.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "gen/registry.hpp"
#include "io/verilog.hpp"
#include "sfq/netlist.hpp"
#include "t1/flow_engine.hpp"

namespace t1map {
namespace {

using sfq::CellKind;

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(Verilog, TinyExactGolden) {
  sfq::Netlist ntk;
  const std::uint32_t a = ntk.add_pi("a");
  const std::uint32_t b = ntk.add_pi("b");
  const std::uint32_t x = ntk.add_cell(CellKind::kXor2, {a, b});
  ntk.add_po(x, "y");

  std::ostringstream os;
  io::write_verilog(os, ntk, nullptr, "tiny");
  EXPECT_EQ(os.str(),
            "// Structural SFQ netlist exported by t1map.\n"
            "// cells: 3 nodes, 0 T1 cores, 0 DFFs; implicit splitters: 0 "
            "(see per-net comments).\n"
            "module tiny (\n"
            "  input  wire clk,\n"
            "  input  wire a,\n"
            "  input  wire b,\n"
            "  output wire y\n"
            ");\n"
            "  wire n2;\n"
            "  sfq_xor2 g2 (.clk(clk), .a(a), .b(b), .y(n2));\n"
            "  assign y = n2;\n"
            "endmodule\n"
            "\n"
            "// ---- behavioral primitive library "
            "----------------------------------\n"
            "// Functional models only: DFFs are transparent delays and "
            "pulses\n"
            "// are levels, so simulation matches the mapped netlist's\n"
            "// combinational semantics.  For pulse-level co-simulation, "
            "define\n"
            "// T1MAP_SFQ_BEHAVIORAL and bind a timing-accurate library "
            "instead.\n"
            "`ifndef T1MAP_SFQ_BEHAVIORAL\n"
            "`define T1MAP_SFQ_BEHAVIORAL\n"
            "module sfq_xor2 #(parameter STAGE = 0) (input clk, input a, "
            "input b, output y);\n"
            "  assign y = a ^ b;\n"
            "endmodule\n"
            "`endif  // T1MAP_SFQ_BEHAVIORAL\n");
}

TEST(Verilog, MappedAdder16IsStructurallyConsistent) {
  const Aig aig = gen::make_named("adder16");
  t1::FlowParams params;
  params.num_phases = 4;
  params.use_t1 = true;
  t1::FlowEngine engine;
  const t1::EngineResult r = engine.run(aig, params);
  ASSERT_TRUE(r.ok()) << r.diagnostics.to_string();
  const sfq::Netlist& ntk = r.materialized.netlist;
  ASSERT_GT(ntk.num_t1(), 0u);
  ASSERT_GT(ntk.count_kind(CellKind::kDff), 0u);

  std::ostringstream os;
  io::write_verilog(os, ntk, &r.materialized.stages, "adder16_t1");
  const std::string v = os.str();
  // The top module text; the behavioral library follows its `endmodule`.
  const std::string body = v.substr(0, v.find("endmodule\n"));

  // Ports: clk + every PI + every PO, exactly once each.
  EXPECT_EQ(count_occurrences(body, "input  wire clk"), 1u);
  EXPECT_EQ(count_occurrences(body, "input  wire "), 1u + ntk.num_pis());
  EXPECT_EQ(count_occurrences(body, "output wire "), ntk.num_pos());
  EXPECT_EQ(count_occurrences(body, "  assign "),
            ntk.num_pos() + ntk.count_kind(CellKind::kConst0) +
                ntk.count_kind(CellKind::kConst1));

  // One instance per instantiable cell, with kind counts intact.  Every
  // instance carries .clk and, because stages were passed, a STAGE param.
  const std::size_t instances = count_occurrences(body, "(.clk(clk)");
  EXPECT_EQ(count_occurrences(body, "  sfq_t1 #(.STAGE("), ntk.num_t1());
  EXPECT_EQ(count_occurrences(body, "  sfq_dff #(.STAGE("),
            ntk.count_kind(CellKind::kDff));
  EXPECT_EQ(count_occurrences(body, "  sfq_and2 #(.STAGE("),
            ntk.count_kind(CellKind::kAnd2));
  EXPECT_EQ(count_occurrences(body, "  sfq_xor2 #(.STAGE("),
            ntk.count_kind(CellKind::kXor2));
  EXPECT_EQ(count_occurrences(body, "#(.STAGE("), instances);
  EXPECT_NE(v.find("// clocking: 4 phase(s) per cycle"), std::string::npos);
  EXPECT_NE(v.find("implicit splitters: " +
                   std::to_string(ntk.splitter_count())),
            std::string::npos);

  // The behavioral library only models what the netlist uses.
  EXPECT_NE(v.find("module sfq_t1 #(parameter STAGE = 0)"),
            std::string::npos);
  EXPECT_NE(v.find("module sfq_dff #(parameter STAGE = 0)"),
            std::string::npos);
  EXPECT_EQ(v.find("module sfq_maj3"), std::string::npos)
      << "MAJ3 is folded into T1 cores by the mapper; its model is dead code";
}

TEST(Verilog, SanitizesHostileInterfaceNames) {
  sfq::Netlist ntk;
  const std::uint32_t kw = ntk.add_pi("module");     // Verilog keyword
  const std::uint32_t digit = ntk.add_pi("1bad");    // leading digit
  const std::uint32_t punct = ntk.add_pi("a.b[0]");  // invalid characters
  const std::uint32_t clash = ntk.add_pi("n4");      // exporter-reserved shape
  const std::uint32_t g = ntk.add_cell(CellKind::kAnd2, {kw, digit});
  const std::uint32_t h = ntk.add_cell(CellKind::kOr2, {punct, clash});
  ntk.add_po(g, "output");  // keyword PO
  ntk.add_po(h, "a.b[0]");  // collides with the sanitized PI

  std::ostringstream os;
  io::write_verilog(os, ntk, nullptr, "hostile");
  const std::string v = os.str();
  EXPECT_NE(v.find("input  wire module_  // module"), std::string::npos);
  EXPECT_NE(v.find("input  wire pi1_1bad  // 1bad"), std::string::npos);
  EXPECT_NE(v.find("input  wire a_b_0_  // a.b[0]"), std::string::npos);
  EXPECT_NE(v.find("input  wire n4_  // n4"), std::string::npos);
  EXPECT_NE(v.find("output wire output_  // output"), std::string::npos);
  EXPECT_NE(v.find("output wire a_b_0__  // a.b[0]"), std::string::npos);
}

}  // namespace
}  // namespace t1map
