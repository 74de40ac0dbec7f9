// BLIF / DOT / JSON tests: structural sanity of the emitted text, full
// write -> parse -> CEC round trips for BLIF (AIGs and mapped netlists
// with T1 cells and latches), and JSON round trips.

#include <gtest/gtest.h>

#include <sstream>

#include "gen/arith.hpp"
#include "gen/voter.hpp"
#include "io/blif.hpp"
#include "io/dot.hpp"
#include "io/json.hpp"
#include "retime/dff_insert.hpp"
#include "sat/cec.hpp"
#include "serve/aig_hash.hpp"
#include "sfq/mapper.hpp"
#include "t1/flow_engine.hpp"

namespace t1map {
namespace {

TEST(Blif, AigContainsAllSections) {
  const Aig aig = gen::ripple_adder(3);
  std::ostringstream os;
  io::write_blif(os, aig, "adder3");
  const std::string text = os.str();
  EXPECT_NE(text.find(".model adder3"), std::string::npos);
  EXPECT_NE(text.find(".inputs"), std::string::npos);
  EXPECT_NE(text.find(".outputs"), std::string::npos);
  EXPECT_NE(text.find(".names"), std::string::npos);
  EXPECT_NE(text.find(".end"), std::string::npos);
  // One PO alias line per output.
  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    EXPECT_NE(text.find(" " + aig.po_name(i) + "\n"), std::string::npos);
  }
}

TEST(Blif, NetlistWithT1AndDffs) {
  const Aig aig = gen::ripple_adder(4);
  t1::FlowParams params;
  params.num_phases = 4;
  t1::FlowEngine engine;
  const t1::EngineResult r = engine.run(aig, params);
  ASSERT_TRUE(r.ok()) << r.diagnostics.to_string();

  std::ostringstream os;
  io::write_blif(os, r.materialized.netlist, "adder4_t1");
  const std::string text = os.str();
  // DFFs become latches; T1 taps are .names over three inputs.
  EXPECT_NE(text.find(".latch"), std::string::npos);
  EXPECT_NE(text.find(".names"), std::string::npos);
  EXPECT_EQ(text.find("T1"), std::string::npos);  // cores are flattened
}

TEST(Blif, AigRoundTripIsEquivalent) {
  const Aig aig = gen::ripple_adder(6);
  std::ostringstream os;
  io::write_blif(os, aig, "adder6");

  std::string model;
  const Aig back = io::read_blif_string(os.str(), &model);
  EXPECT_EQ(model, "adder6");
  EXPECT_EQ(back.num_pis(), aig.num_pis());
  EXPECT_EQ(back.num_pos(), aig.num_pos());

  const sat::CecResult cec = sat::check_equivalence(aig, back);
  EXPECT_EQ(cec.verdict, sat::CecResult::Verdict::kEquivalent);
}

TEST(Blif, MappedNetlistRoundTripIsEquivalent) {
  // The CLI's export path: a mapped netlist with T1 cells and latch-written
  // DFFs must parse back (latches as buffers) into something combinationally
  // equivalent to the source AIG.
  const Aig aig = gen::ripple_adder(5);
  t1::FlowParams params;
  params.num_phases = 4;
  params.use_t1 = true;
  t1::FlowEngine engine;
  const t1::EngineResult r = engine.run(aig, params);
  ASSERT_TRUE(r.ok()) << r.diagnostics.to_string();
  ASSERT_GT(r.stats.t1_used, 0);

  std::ostringstream os;
  io::write_blif(os, r.materialized.netlist, "adder5_t1");
  const Aig back = io::read_blif_string(os.str());

  const sat::CecResult cec = sat::check_equivalence(aig, back);
  EXPECT_EQ(cec.verdict, sat::CecResult::Verdict::kEquivalent);
}

TEST(Blif, ReaderHandlesCoverFeatures) {
  // Don't-cares, offset covers (output phase 0), constants, multi-row
  // covers, comments and line continuations.
  const std::string text =
      "# full adder, written the awkward way\n"
      ".model fa\n"
      ".inputs a b \\\n"
      "cin\n"
      ".outputs sum carry_n one\n"
      ".names a b cin sum\n"
      "100 1\n"
      "010 1\n"
      "001 1\n"
      "111 1\n"
      ".names a b cin carry_n\n"  // offset cover: NOT(majority)
      "11- 0\n"
      "1-1 0\n"
      "-11 0\n"
      ".names one\n"
      "1\n"
      ".end\n";
  const Aig parsed = io::read_blif_string(text);
  ASSERT_EQ(parsed.num_pis(), 3u);
  ASSERT_EQ(parsed.num_pos(), 3u);

  Aig want;
  const Lit a = want.create_pi("a");
  const Lit b = want.create_pi("b");
  const Lit cin = want.create_pi("cin");
  want.create_po(want.create_xor3(a, b, cin), "sum");
  want.create_po(lit_not(want.create_maj3(a, b, cin)), "carry_n");
  want.create_po(Aig::kConst1, "one");

  const sat::CecResult cec = sat::check_equivalence(parsed, want);
  EXPECT_EQ(cec.verdict, sat::CecResult::Verdict::kEquivalent);
}

TEST(Blif, WriterAvoidsPortNameCollisions) {
  // A PI named like an internal signal ("n2") must not alias an AND node's
  // output in the export; the round trip has to stay equivalent.
  Aig aig;
  const Lit n2 = aig.create_pi("n2");
  const Lit b = aig.create_pi("b");
  aig.create_po(aig.create_and(n2, b), "z");

  std::ostringstream os;
  io::write_blif(os, aig, "collide");
  const Aig back = io::read_blif_string(os.str());
  EXPECT_EQ(back.num_ands(), 1u);

  const sat::CecResult cec = sat::check_equivalence(aig, back);
  EXPECT_EQ(cec.verdict, sat::CecResult::Verdict::kEquivalent);
}

TEST(Blif, ReaderHandlesCrlfAndDeepChains) {
  // CRLF line endings with a continuation, plus a buffer chain deep enough
  // to break a recursive elaborator.
  std::ostringstream text;
  text << ".model crlf\r\n.inputs a \\\r\nb\r\n.outputs z\r\n";
  constexpr int kDepth = 200000;
  text << ".names a b s0\n11 1\n";
  for (int i = 1; i < kDepth; ++i) {
    text << ".names s" << (i - 1) << " s" << i << "\n1 1\n";
  }
  text << ".names s" << (kDepth - 1) << " z\n1 1\n.end\n";

  const Aig parsed = io::read_blif_string(text.str());
  EXPECT_EQ(parsed.num_pis(), 2u);

  Aig want;
  want.create_po(want.create_and(want.create_pi("a"), want.create_pi("b")),
                 "z");
  const sat::CecResult cec = sat::check_equivalence(parsed, want);
  EXPECT_EQ(cec.verdict, sat::CecResult::Verdict::kEquivalent);
}

TEST(Blif, ReaderHandlesMissingFinalNewline) {
  // The last line of a file often lacks '\n' (truncated editors, pipes).
  // Both a final `.end` and a final cover row must parse.
  const Aig with_end = io::read_blif_string(
      ".model m\n.inputs a b\n.outputs z\n.names a b z\n11 1\n.end");
  EXPECT_EQ(with_end.num_pis(), 2u);
  EXPECT_EQ(with_end.num_ands(), 1u);

  const Aig no_end = io::read_blif_string(
      ".model m\n.inputs a b\n.outputs z\n.names a b z\n11 1");
  const sat::CecResult cec = sat::check_equivalence(with_end, no_end);
  EXPECT_EQ(cec.verdict, sat::CecResult::Verdict::kEquivalent);
}

TEST(Blif, ContinuationKeepsTokenBoundaries) {
  // A '\' directly after the last token used to glue it to the next
  // line's first token ("b" + "cin" -> "bcin"), silently dropping an
  // input.  The continuation must behave as whitespace.
  const std::string text =
      ".model fa\n"
      ".inputs a b\\\n"
      "cin\n"
      ".outputs sum\n"
      ".names a b\\\n"
      "cin sum\n"
      "100 1\n010 1\n001 1\n111 1\n"
      ".end\n";
  const Aig parsed = io::read_blif_string(text);
  ASSERT_EQ(parsed.num_pis(), 3u);

  Aig want;
  const Lit a = want.create_pi("a");
  const Lit b = want.create_pi("b");
  const Lit cin = want.create_pi("cin");
  want.create_po(want.create_xor3(a, b, cin), "sum");
  const sat::CecResult cec = sat::check_equivalence(parsed, want);
  EXPECT_EQ(cec.verdict, sat::CecResult::Verdict::kEquivalent);
}

TEST(Blif, ContinuationInsideCoverRows) {
  // Continuations *inside* a .names cover list, including one whose
  // backslash carries trailing blanks (and a CRLF) — previously the '\'
  // survived as a bogus cover token and the row was rejected or dropped.
  const std::string text =
      ".model m\n"
      ".inputs a b c\n"
      ".outputs z\n"
      ".names a b c z\n"
      "11- \\  \n"
      "1\n"
      "-11 \\\r\n"
      "1\n"
      ".end\n";
  const Aig parsed = io::read_blif_string(text);

  Aig want;
  const Lit a = want.create_pi("a");
  const Lit b = want.create_pi("b");
  const Lit c = want.create_pi("c");
  want.create_po(want.create_or(want.create_and(a, b), want.create_and(b, c)),
                 "z");
  const sat::CecResult cec = sat::check_equivalence(parsed, want);
  EXPECT_EQ(cec.verdict, sat::CecResult::Verdict::kEquivalent);
}

TEST(Blif, ReaderRejectsMalformedInput) {
  EXPECT_THROW(io::read_blif_string(".model m\n.inputs a\n.outputs z\n.end\n"),
               ContractError);  // z undriven
  EXPECT_THROW(io::read_blif_string(
                   ".model m\n.inputs a\n.outputs z\n"
                   ".names a z\n1 1\n.names a z\n0 1\n.end\n"),
               ContractError);  // z driven twice
  EXPECT_THROW(io::read_blif_string(
                   ".model m\n.inputs a\n.outputs z\n"
                   ".names a z\n2 1\n.end\n"),
               ContractError);  // bad cover literal
  EXPECT_THROW(io::read_blif_string(
                   ".model m\n.inputs a\n.outputs y z\n"
                   ".names z y\n1 1\n.names y z\n1 1\n.end\n"),
               ContractError);  // combinational cycle
  EXPECT_THROW(io::read_blif_string(
                   ".model m\n.inputs a\n.outputs z\n"
                   ".names a\n1\n.names a z\n1 1\n.end\n"),
               ContractError);  // gate drives a declared input
  EXPECT_THROW(io::read_blif_string(""), ContractError);  // empty input
  EXPECT_THROW(io::read_blif_string("# only a comment\n"), ContractError);
}

TEST(Json, BuildAndDump) {
  io::Json obj = io::Json::object();
  obj.set("name", "adder16");
  obj.set("jj_total", 1058);
  obj.set("winner", true);
  io::Json arr = io::Json::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(io::Json());
  obj.set("misc", std::move(arr));

  const std::string compact = obj.dump(-1);
  EXPECT_EQ(compact,
            "{\"name\":\"adder16\",\"jj_total\":1058,\"winner\":true,"
            "\"misc\":[1,\"two\",null]}");
}

TEST(Json, ParseRoundTrip) {
  const std::string text =
      "{\"a\": [1, 2.5, -3e2], \"b\": {\"nested\": \"va\\\"l\\n\"},"
      " \"c\": false, \"d\": null}";
  const io::Json j = io::Json::parse(text);
  EXPECT_DOUBLE_EQ(j.at("a").at(1).as_number(), 2.5);
  EXPECT_DOUBLE_EQ(j.at("a").at(2).as_number(), -300.0);
  EXPECT_EQ(j.at("b").at("nested").as_string(), "va\"l\n");
  EXPECT_FALSE(j.at("c").as_bool());
  EXPECT_TRUE(j.at("d").is_null());
  EXPECT_FALSE(j.contains("missing"));

  // dump -> parse is the identity on the value.
  const io::Json again = io::Json::parse(j.dump(2));
  EXPECT_EQ(again.dump(-1), j.dump(-1));
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(io::Json::parse(""), ContractError);
  EXPECT_THROW(io::Json::parse("{\"a\": 1,}"), ContractError);
  EXPECT_THROW(io::Json::parse("[1, 2] trailing"), ContractError);
  EXPECT_THROW(io::Json::parse("{\"a\" 1}"), ContractError);
  EXPECT_THROW(io::Json::parse("\"unterminated"), ContractError);
}

TEST(Dot, StagesAnnotated) {
  const Aig aig = gen::ripple_adder(3);
  t1::FlowParams params;
  params.num_phases = 4;
  t1::FlowEngine engine;
  const t1::EngineResult r = engine.run(aig, params);
  ASSERT_TRUE(r.ok()) << r.diagnostics.to_string();

  std::ostringstream os;
  io::write_dot(os, r.materialized.netlist, &r.materialized.stages);
  const std::string text = os.str();
  EXPECT_NE(text.find("digraph"), std::string::npos);
  EXPECT_NE(text.find("σ="), std::string::npos);
  EXPECT_NE(text.find("fillcolor=gold"), std::string::npos);  // T1 cores
  EXPECT_NE(text.find("->"), std::string::npos);
}

TEST(Blif, DanglingAndsRoundTripStably) {
  // The writer emits only the PO-reachable cone: ANDs no output observes
  // would otherwise be dropped by the demand-driven reader, making
  // write -> read round trips structurally unstable.  (Byte identity is
  // not the contract — the reader renumbers nets in elaboration order —
  // but the structural digest must survive, and a second trip must be a
  // fixpoint.)
  Aig aig;
  const Lit a = aig.create_pi("a");
  const Lit b = aig.create_pi("b");
  aig.create_and(a, lit_not(b));  // dangling: no PO reaches it
  aig.create_po(aig.create_and(a, b), "y");

  std::ostringstream first;
  io::write_blif(first, aig, "dangle");
  // The dangling gate is not in the emitted text: one AND cover only.
  EXPECT_EQ(first.str().find("11 1\n"), first.str().rfind("11 1\n"));
  const Aig back = io::read_blif_string(first.str());
  EXPECT_EQ(back.num_ands(), 1u);
  EXPECT_EQ(back.num_pis(), 2u);  // PIs survive even when unobserved
  EXPECT_EQ(serve::hash_aig(back), serve::hash_aig(aig));

  std::ostringstream second;
  io::write_blif(second, back, "dangle");
  const Aig again = io::read_blif_string(second.str());
  std::ostringstream third;
  io::write_blif(third, again, "dangle");
  EXPECT_EQ(second.str(), third.str());

  const sat::CecResult cec = sat::check_equivalence(aig.cleaned(), back);
  EXPECT_EQ(cec.verdict, sat::CecResult::Verdict::kEquivalent);
}

TEST(Blif, ZeroPoNetlistRoundTrips) {
  Aig aig;
  aig.create_pi("a");
  aig.create_pi("b");

  std::ostringstream first;
  io::write_blif(first, aig, "inputs_only");
  const Aig back = io::read_blif_string(first.str());
  EXPECT_EQ(back.num_pis(), 2u);
  EXPECT_EQ(back.num_pos(), 0u);
  EXPECT_EQ(back.num_ands(), 0u);
  std::ostringstream second;
  io::write_blif(second, back, "inputs_only");
  EXPECT_EQ(first.str(), second.str());
}

TEST(Blif, ConstantOutputsRoundTrip) {
  Aig aig;
  aig.create_po(Aig::kConst1, "hi");
  aig.create_po(Aig::kConst0, "lo");

  std::ostringstream first;
  io::write_blif(first, aig, "consts");
  const Aig back = io::read_blif_string(first.str());
  ASSERT_EQ(back.num_pos(), 2u);
  EXPECT_EQ(back.po(0), Aig::kConst1);
  EXPECT_EQ(back.po(1), Aig::kConst0);
  std::ostringstream second;
  io::write_blif(second, back, "consts");
  EXPECT_EQ(first.str(), second.str());
}

TEST(Dot, PlainNetlistWithoutStages) {
  const sfq::Netlist ntk = sfq::map_to_sfq(gen::ripple_adder(2));
  std::ostringstream os;
  io::write_dot(os, ntk);
  EXPECT_NE(os.str().find("digraph"), std::string::npos);
  EXPECT_EQ(os.str().find("σ="), std::string::npos);
}

}  // namespace
}  // namespace t1map
