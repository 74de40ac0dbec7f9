// Unit tests for the AIG: construction invariants, structural hashing,
// simulation, levels, cleanup, and the node ids every builder produces.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "aig/aig_digest.hpp"
#include "aig/aig_sim.hpp"
#include "fuzz/mutate.hpp"
#include "gen/registry.hpp"
#include "io/aiger.hpp"
#include "io/blif.hpp"
#include "sfq/mapper.hpp"

namespace t1map {
namespace {

TEST(Aig, ConstantFolding) {
  Aig aig;
  const Lit a = aig.create_pi();
  EXPECT_EQ(aig.create_and(a, Aig::kConst0), Aig::kConst0);
  EXPECT_EQ(aig.create_and(a, Aig::kConst1), a);
  EXPECT_EQ(aig.create_and(a, a), a);
  EXPECT_EQ(aig.create_and(a, lit_not(a)), Aig::kConst0);
  EXPECT_EQ(aig.num_ands(), 0u);
}

TEST(Aig, StructuralHashing) {
  Aig aig;
  const Lit a = aig.create_pi();
  const Lit b = aig.create_pi();
  const Lit x = aig.create_and(a, b);
  const Lit y = aig.create_and(b, a);  // commuted: same node
  EXPECT_EQ(x, y);
  EXPECT_EQ(aig.num_ands(), 1u);
  const Lit z = aig.create_and(lit_not(a), b);  // different node
  EXPECT_NE(x, z);
  EXPECT_EQ(aig.num_ands(), 2u);
}

TEST(Aig, XorAndMajFunctions) {
  Aig aig;
  const Lit a = aig.create_pi();
  const Lit b = aig.create_pi();
  const Lit c = aig.create_pi();
  aig.create_po(aig.create_xor3(a, b, c), "xor3");
  aig.create_po(aig.create_maj3(a, b, c), "maj3");
  aig.create_po(aig.create_or3(a, b, c), "or3");
  aig.create_po(aig.create_ite(a, b, c), "ite");

  const auto tts = exhaustive_po_tts(aig);
  EXPECT_EQ(tts[0], tts::xor3());
  EXPECT_EQ(tts[1], tts::maj3());
  EXPECT_EQ(tts[2], tts::or3());
  EXPECT_EQ(tts[3], (Tt::var(3, 0) & Tt::var(3, 1)) |
                        (~Tt::var(3, 0) & Tt::var(3, 2)));
}

TEST(Aig, SimulationWithComplementedPo) {
  Aig aig;
  const Lit a = aig.create_pi();
  const Lit b = aig.create_pi();
  aig.create_po(lit_not(aig.create_and(a, b)), "nand");
  const std::uint64_t words[] = {0b0101, 0b0011};
  const auto out = simulate(aig, words);
  // Patterns (a,b) = (1,1),(0,1),(1,0),(0,0) bit 0..3 -> NAND = 0,1,1,1.
  EXPECT_EQ(out[0] & 0xFu, 0b1110u);
}

TEST(Aig, LevelsAndDepth) {
  Aig aig;
  const Lit a = aig.create_pi();
  const Lit b = aig.create_pi();
  const Lit c = aig.create_pi();
  const Lit ab = aig.create_and(a, b);
  const Lit abc = aig.create_and(ab, c);
  aig.create_po(abc);
  EXPECT_EQ(aig.depth(), 2);
  const auto levels = aig.levels();
  EXPECT_EQ(levels[lit_node(ab)], 1);
  EXPECT_EQ(levels[lit_node(abc)], 2);
}

TEST(Aig, FanoutCounts) {
  Aig aig;
  const Lit a = aig.create_pi();
  const Lit b = aig.create_pi();
  const Lit x = aig.create_and(a, b);
  aig.create_po(x);
  aig.create_po(x);
  const auto fanout = aig.fanout_counts();
  EXPECT_EQ(fanout[lit_node(x)], 2u);
  EXPECT_EQ(fanout[lit_node(a)], 1u);
}

TEST(Aig, CleanedRemovesDeadNodes) {
  Aig aig;
  const Lit a = aig.create_pi();
  const Lit b = aig.create_pi();
  const Lit used = aig.create_and(a, b);
  aig.create_and(lit_not(a), lit_not(b));  // dead
  aig.create_po(used);
  EXPECT_EQ(aig.num_ands(), 2u);

  const Aig clean = aig.cleaned();
  EXPECT_EQ(clean.num_ands(), 1u);
  EXPECT_EQ(clean.num_pis(), 2u);
  EXPECT_EQ(clean.num_pos(), 1u);

  // Function preserved.
  const auto before = exhaustive_po_tts(aig);
  const auto after = exhaustive_po_tts(clean);
  EXPECT_EQ(before[0], after[0]);
}

TEST(Aig, CleanedPreservesComplementedAndConstPos) {
  Aig aig;
  const Lit a = aig.create_pi();
  aig.create_po(lit_not(a), "na");
  aig.create_po(Aig::kConst1, "one");
  const Aig clean = aig.cleaned();
  const auto tts = exhaustive_po_tts(clean);
  EXPECT_EQ(tts[0], ~Tt::var(1, 0));
  EXPECT_TRUE(tts[1].is_const1());
}

TEST(Aig, RandomSimulateDeterministic) {
  Aig aig;
  const Lit a = aig.create_pi();
  const Lit b = aig.create_pi();
  aig.create_po(aig.create_xor(a, b));
  const auto r1 = random_simulate(aig, 3, 42);
  const auto r2 = random_simulate(aig, 3, 42);
  EXPECT_EQ(r1.po_words, r2.po_words);
  const auto r3 = random_simulate(aig, 3, 43);
  EXPECT_NE(r1.pi_words, r3.pi_words);
}

TEST(Aig, CutViewLocalTt) {
  Aig aig;
  const Lit a = aig.create_pi();
  const Lit b = aig.create_pi();
  const Lit x = aig.create_and(lit_not(a), b);
  EXPECT_TRUE(aig.cut_is_leaf(lit_node(a)));
  EXPECT_FALSE(aig.cut_is_leaf(lit_node(x)));
  // Local tt reflects the complemented edge (var order = fanin order).
  const Tt local = aig.cut_local_tt(lit_node(x));
  EXPECT_EQ(local.count_ones(), 1);
}

// Structural hashing only deduplicates: 200000 random `create_and` calls
// (repeats, commuted operands, complemented fanins, constants) over a
// table that doubles many times must return what a std::map reference
// says, and create a node exactly when the reference has none.
TEST(Aig, StrashSurvivesTableGrowth) {
  Aig aig;
  for (int i = 0; i < 64; ++i) aig.create_pi();
  std::map<std::pair<Lit, Lit>, Lit> ref;  // normalized (a < b) -> result
  std::vector<std::pair<Lit, Lit>> asked;
  std::mt19937_64 rng(2027);
  const auto pick = [&] {
    const std::uint32_t node = static_cast<std::uint32_t>(
        std::uniform_int_distribution<std::uint32_t>(0, aig.num_nodes() - 1)(
            rng));
    return make_lit(node, (rng() & 1u) != 0);
  };
  // The expected result of a call, creating the reference entry when the
  // call makes a node.
  const auto expected = [&](Lit a, Lit b, std::uint32_t next) {
    if (a > b) std::swap(a, b);
    if (a == Aig::kConst0 || a == lit_not(b)) return Aig::kConst0;
    if (a == Aig::kConst1) return b;
    if (a == b) return a;
    const auto [it, fresh] = ref.try_emplace({a, b}, make_lit(next));
    return it->second;
  };

  for (int call = 0; call < 200000; ++call) {
    Lit a = 0;
    Lit b = 0;
    const unsigned kind = static_cast<unsigned>(rng() % 8);
    if (kind < 2 && !asked.empty()) {  // a repeat, commuted half the time
      const auto& prev = asked[rng() % asked.size()];
      a = prev.first;
      b = prev.second;
      if (kind == 1) std::swap(a, b);
    } else if (kind == 2) {  // a constant or the operand itself
      a = pick();
      const Lit others[] = {Aig::kConst0, Aig::kConst1, a, lit_not(a)};
      b = others[rng() % 4];
    } else {
      a = pick();
      b = pick();
    }
    const std::uint32_t before = aig.num_nodes();
    const Lit want = expected(a, b, before);
    const Lit got = aig.create_and(a, b);
    ASSERT_EQ(got, want) << "call " << call << ": " << a << " & " << b;
    const bool made = lit_node(want) == before && before != 0;
    ASSERT_EQ(aig.num_nodes(), before + (made ? 1u : 0u)) << "call " << call;
    asked.emplace_back(a, b);
  }
  EXPECT_GT(aig.num_ands(), 100000u);  // the table doubled many times
  EXPECT_EQ(aig.num_ands(), ref.size());

  // A copy deduplicates on its own: it finds every node the original has,
  // and the two never see each other's later nodes.
  Aig copy = aig;
  const std::uint32_t n = aig.num_nodes();
  for (const auto& [pair, lit] : ref) {
    ASSERT_EQ(copy.create_and(pair.second, pair.first), lit);
  }
  EXPECT_EQ(copy.num_nodes(), n);
  std::vector<std::pair<Lit, Lit>> fresh;
  for (std::uint32_t x = n - 1; fresh.size() < 2; --x) {
    const Lit a = make_lit(x - 1, true);
    const Lit b = make_lit(x);
    if (!ref.contains({a, b})) fresh.emplace_back(a, b);
  }
  const auto [a0, b0] = fresh[0];
  const auto [a1, b1] = fresh[1];
  EXPECT_EQ(copy.create_and(a0, b0), make_lit(n));
  EXPECT_EQ(copy.create_and(b0, a0), make_lit(n));
  EXPECT_EQ(aig.num_nodes(), n);
  EXPECT_EQ(aig.create_and(a1, b1), make_lit(n));
  EXPECT_EQ(aig.create_and(a0, b0), make_lit(n + 1));
  EXPECT_EQ(copy.create_and(a1, b1), make_lit(n + 1));
  EXPECT_EQ(aig.num_nodes(), n + 2);
  EXPECT_EQ(copy.num_nodes(), n + 2);
}

struct PinnedBuild {
  const char* build;
  std::uint64_t digest;
};

// An AIGER file whose ANDs come out of order and repeat one gate
// (commuted), so the reader's demand-first elaboration and its
// deduplication both take part.
constexpr const char* kOutOfOrderAag =
    "aag 9 3 0 2 6\n"
    "2\n4\n6\n"
    "18\n17\n"
    "18 14 16\n"
    "14 8 11\n"
    "8 2 4\n"
    "10 5 3\n"
    "12 3 5\n"
    "16 12 7\n";

Aig build_pinned(const std::string& build) {
  const auto aiger_text = [](const Aig& aig, io::AigerFormat format) {
    std::ostringstream os;
    io::write_aiger(os, aig, format);
    return os.str();
  };
  const auto colon = build.find(':');
  const std::string how = build.substr(0, colon);
  const std::string name = build.substr(colon + 1);
  if (how == "gen") return gen::make_named(name);
  if (how == "aag") {
    return io::read_aiger_string(
        aiger_text(gen::make_named(name), io::AigerFormat::kAscii));
  }
  if (how == "aig") {
    return io::read_aiger_string(
        aiger_text(gen::make_named(name), io::AigerFormat::kBinary));
  }
  if (how == "aag-text") return io::read_aiger_string(kOutOfOrderAag);
  if (how == "blif") {  // the AIG's own BLIF
    std::ostringstream os;
    io::write_blif(os, gen::make_named(name));
    return io::read_blif_string(os.str());
  }
  if (how == "blif-mapped") {  // the mapped netlist's BLIF: cells as covers
    std::ostringstream os;
    io::write_blif(os, sfq::map_to_sfq(gen::make_named(name)));
    return io::read_blif_string(os.str());
  }
  if (how.starts_with("mutate")) {  // mutateSEED.EDITS:NAME
    const auto dot = how.find('.');
    const fuzz::MutateOptions options{std::stoull(how.substr(6, dot - 6)),
                                      std::stoi(how.substr(dot + 1))};
    return fuzz::mutate_aig(gen::make_named(name), options);
  }
  if (how == "cleaned") return gen::make_named(name).cleaned();
  if (how == "cleaned-mutant") {  // mutants leave dead nodes to drop
    return fuzz::mutate_aig(gen::make_named(name), {7, 6}).cleaned();
  }
  ADD_FAILURE() << "unknown build " << build;
  return Aig{};
}

// Node ids are part of every result downstream (mapped netlists, memo
// keys, goldens), so every builder's output is pinned by its id-level
// identity digest.  A failing row prints itself as it is now.
TEST(Aig, BuildsArePinned) {
  // clang-format off
  static const PinnedBuild kRows[] = {
      {"gen:adder",             0xf632451e4e899aa5ull},
      {"gen:c7552",             0x25ef1d8597665c30ull},
      {"gen:c6288",             0xe957bc9322b34bf5ull},
      {"gen:sin",               0x52dfecd34652739eull},
      {"gen:voter",             0x7ec8c417b175ca19ull},
      {"gen:square",            0xda7a1a2a2e9c9678ull},
      {"gen:multiplier",        0x52696400658490dbull},
      {"gen:log2",              0x5095822cd2fa582cull},
      {"gen:adder2",            0xeb7cc43bb56ad5bdull},
      {"gen:adder16",           0xd76a43f2b4a00ccdull},
      {"gen:adder64",           0x0b3208530c27efc8ull},
      {"gen:mul2",              0xad8dea1258c1bf22ull},
      {"gen:mul8",              0x019131388d6020eeull},
      {"gen:mul5",              0x5ac32a35e4fee11full},
      {"gen:square2",           0xcaab2462eafc6848ull},
      {"gen:square12",          0x8834e09c901c646eull},
      {"gen:voter3",            0xd265236aad1c76deull},
      {"gen:voter25",           0x201a133ea95e0b1eull},
      {"gen:comparator2",       0x9933e68f0b95f055ull},
      {"gen:comparator16",      0xfc28a3b8da8cc9faull},
      {"gen:sin4",              0x79640e14f5432a9aull},
      {"gen:sin12",             0x7f6d1a57ea6cd411ull},
      {"gen:cordic8",           0xa079ac085669823dull},
      {"gen:log2_4",            0x7a28f4430d4cc96aull},
      {"gen:log2_16",           0x07865c4cba9e057aull},
      {"gen:fuzz1",             0xe9169dfbc566db39ull},
      {"gen:fuzz50",            0x82dcd9471d262daaull},
      {"gen:fuzz200",           0x685dce5e0de4b843ull},
      {"gen:fuzz1000",          0xb8285483e7d5f307ull},
      {"gen:fuzz5000",          0x4a79a72756c80dd0ull},
      {"aag:mul8",              0x019131388d6020eeull},
      {"aag:log2_16",           0x07865c4cba9e057aull},
      {"aig:sin12",             0x7f6d1a57ea6cd411ull},
      {"aig:c6288",             0xe957bc9322b34bf5ull},
      {"aag-text:out-of-order", 0x6cb871ec98249714ull},
      {"blif:voter25",          0xacf5dec51a5b0ebcull},
      {"blif-mapped:adder16",   0xdec8fcd008825333ull},
      {"blif-mapped:fuzz300",   0x7f5664ea7ecb616aull},
      {"mutate1.1:fuzz300",     0xe2a8383e66d135c8ull},
      {"mutate2.3:mul8",        0x33784dce8dece4c3ull},
      {"mutate3.8:sin12",       0xb37040c57e61b1cbull},
      {"cleaned:mul8",          0x5e84508e4faa7397ull},
      {"cleaned-mutant:fuzz300", 0x7f4cbf45d3f99cdfull},
      {"cleaned-mutant:c7552",  0x9b5be1b0e0148568ull},
  };
  // clang-format on
  for (const PinnedBuild& row : kRows) {
    const Aig aig = build_pinned(row.build);
    const std::uint64_t digest = aig_digest::identity_digest(aig);
    char now[128];
    std::snprintf(now, sizeof now, "{\"%s\", 0x%016llxull},", row.build,
                  static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, row.digest) << now;
  }
}

}  // namespace
}  // namespace t1map
