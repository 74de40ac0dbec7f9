// SFQ netlist tests: cell metadata, structural contracts, simulation
// semantics of every cell kind, area/splitter accounting, and a digest that
// pins the random-simulation check's verdicts on real circuits.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "aig/aig_sim.hpp"
#include "common/rng.hpp"
#include "gen/registry.hpp"
#include "pin_digest.hpp"
#include "sfq/netlist.hpp"
#include "sfq/netlist_sim.hpp"
#include "t1/flow_engine.hpp"

namespace t1map::sfq {
namespace {

TEST(Cells, MetadataConsistency) {
  for (int i = 0; i < kNumCellKinds; ++i) {
    const CellKind k = static_cast<CellKind>(i);
    EXPECT_FALSE(cell_name(k).empty());
    EXPECT_GE(cell_area_jj(k), 0);
    EXPECT_GE(cell_fanin_count(k), 0);
    EXPECT_LE(cell_fanin_count(k), 3);
  }
  // The paper's headline areas.
  EXPECT_EQ(cell_area_jj(CellKind::kT1), 29);
  // Conventional FA = XOR3 + MAJ3; T1 is 40% of it (abstract: "only 40% of
  // the area required by the conventional realization").
  const int fa = cell_area_jj(CellKind::kXor3) + cell_area_jj(CellKind::kMaj3);
  EXPECT_NEAR(29.0 / fa, 0.40, 0.005);
  EXPECT_EQ(cell_area_jj(CellKind::kDff), 7);
  EXPECT_EQ(kSplitterAreaJj, 3);
}

TEST(Cells, TapFunctions) {
  EXPECT_EQ(cell_tt(CellKind::kT1TapS), tts::xor3());
  EXPECT_EQ(cell_tt(CellKind::kT1TapC), tts::maj3());
  EXPECT_EQ(cell_tt(CellKind::kT1TapQ), tts::or3());
  EXPECT_EQ(cell_tt(CellKind::kT1TapCn), ~tts::maj3());
  EXPECT_EQ(cell_tt(CellKind::kT1TapQn), ~tts::or3());
}

TEST(Netlist, SimulateEveryLogicKind) {
  Netlist n;
  const auto a = n.add_pi("a");
  const auto b = n.add_pi("b");
  const auto c = n.add_pi("c");
  const auto check = [&](std::uint32_t id, const Tt& expect3) {
    // Simulate with projection words so the node word is the tt bits.
    const std::uint64_t words[] = {Tt::var(3, 0).bits(), Tt::var(3, 1).bits(),
                                   Tt::var(3, 2).bits()};
    const auto value = n.simulate_nodes(words);
    EXPECT_EQ(value[id] & 0xFF, expect3.bits()) << cell_name(n.kind(id));
  };

  check(n.add_cell(CellKind::kNot, {a}), ~Tt::var(3, 0));
  check(n.add_cell(CellKind::kBuf, {b}), Tt::var(3, 1));
  check(n.add_cell(CellKind::kAnd2, {a, b}), Tt::var(3, 0) & Tt::var(3, 1));
  check(n.add_cell(CellKind::kOr2, {a, c}), Tt::var(3, 0) | Tt::var(3, 2));
  check(n.add_cell(CellKind::kXor2, {b, c}), Tt::var(3, 1) ^ Tt::var(3, 2));
  check(n.add_cell(CellKind::kAnd3, {a, b, c}),
        Tt::var(3, 0) & Tt::var(3, 1) & Tt::var(3, 2));
  check(n.add_cell(CellKind::kOr3, {a, b, c}), tts::or3());
  check(n.add_cell(CellKind::kXor3, {a, b, c}), tts::xor3());
  check(n.add_cell(CellKind::kMaj3, {a, b, c}), tts::maj3());

  const auto t1 = n.add_t1(a, b, c);
  check(n.add_t1_tap(t1, CellKind::kT1TapS), tts::xor3());
  check(n.add_t1_tap(t1, CellKind::kT1TapC), tts::maj3());
  check(n.add_t1_tap(t1, CellKind::kT1TapQ), tts::or3());
  check(n.add_t1_tap(t1, CellKind::kT1TapCn), ~tts::maj3());
  check(n.add_t1_tap(t1, CellKind::kT1TapQn), ~tts::or3());
}

TEST(Netlist, StructuralContracts) {
  Netlist n;
  const auto a = n.add_pi();
  const auto b = n.add_pi();
  const auto c = n.add_pi();
  const auto t1 = n.add_t1(a, b, c);

  // T1 cores may only be read through taps.
  EXPECT_THROW(n.add_cell(CellKind::kNot, {t1}), ContractError);
  EXPECT_THROW(n.add_po(t1), ContractError);
  EXPECT_THROW(n.add_t1(a, b, t1), ContractError);
  // Distinct data inputs required.
  EXPECT_THROW(n.add_t1(a, a, b), ContractError);
  // Constants are not pulse signals.
  const auto zero = n.add_const(false);
  EXPECT_THROW(n.add_t1(a, b, zero), ContractError);
  // Duplicate taps rejected.
  n.add_t1_tap(t1, CellKind::kT1TapS);
  EXPECT_THROW(n.add_t1_tap(t1, CellKind::kT1TapS), ContractError);
  // Wrong fanin count.
  EXPECT_THROW(n.add_cell(CellKind::kAnd2, {a}), ContractError);

  n.check_well_formed();
}

TEST(Netlist, SplitterAndAreaAccounting) {
  Netlist n;
  const auto a = n.add_pi();
  const auto b = n.add_pi();
  const auto x = n.add_cell(CellKind::kAnd2, {a, b});
  const auto y = n.add_cell(CellKind::kNot, {x});
  const auto z = n.add_cell(CellKind::kOr2, {x, y});
  n.add_po(z);
  n.add_po(z);

  // Fanouts: a:1 b:1 x:2 y:1 z:2 -> splitters: (x)1 + (z)1 = 2.
  EXPECT_EQ(n.splitter_count(), 2);
  const long expected_area = cell_area_jj(CellKind::kAnd2) +
                             cell_area_jj(CellKind::kNot) +
                             cell_area_jj(CellKind::kOr2) +
                             2 * kSplitterAreaJj;
  EXPECT_EQ(n.cell_area_jj_total(), expected_area);
}

TEST(Netlist, T1CoreNeedsNoSplitters) {
  Netlist n;
  const auto a = n.add_pi();
  const auto b = n.add_pi();
  const auto c = n.add_pi();
  const auto t1 = n.add_t1(a, b, c);
  const auto s = n.add_t1_tap(t1, CellKind::kT1TapS);
  const auto cc = n.add_t1_tap(t1, CellKind::kT1TapC);
  n.add_po(s);
  n.add_po(cc);
  // The core has 2 tap "fanouts" but they are physical pins: no splitters.
  EXPECT_EQ(n.splitter_count(), 0);
  // Starred taps pay their inverter; plain taps are free.
  Netlist m;
  const auto ma = m.add_pi();
  const auto mb = m.add_pi();
  const auto mc = m.add_pi();
  const auto mt = m.add_t1(ma, mb, mc);
  m.add_po(m.add_t1_tap(mt, CellKind::kT1TapCn));
  EXPECT_EQ(m.cell_area_jj_total(), kT1AreaJj + 9);
}

TEST(Netlist, CountKind) {
  Netlist n;
  const auto a = n.add_pi();
  const auto b = n.add_pi();
  n.add_cell(CellKind::kAnd2, {a, b});
  n.add_cell(CellKind::kAnd2, {a, b});
  n.add_cell(CellKind::kXor2, {a, b});
  EXPECT_EQ(n.count_kind(CellKind::kAnd2), 2u);
  EXPECT_EQ(n.count_kind(CellKind::kXor2), 1u);
  EXPECT_EQ(n.num_t1(), 0u);
}

// --- The random-simulation check ---------------------------------------------

/// The materialized (explicit-DFF) netlist of one flow over `aig`.
Netlist materialized(const Aig& aig, int phases, bool use_t1) {
  t1::FlowEngine engine;
  engine.set_incremental(false);
  t1::FlowParams params;
  params.num_phases = phases;
  params.use_t1 = use_t1;
  params.verify_rounds = 0;
  t1::EngineResult r = engine.run(aig, params);
  EXPECT_TRUE(r.ok()) << r.diagnostics.to_string();
  return std::move(r.materialized.netlist);
}

/// A node-for-node copy of `ntk` in which `edit` may change each node
/// before it is added (same ids, same POs).
Netlist rebuilt(
    const Netlist& ntk,
    const std::function<void(std::uint32_t, Netlist::Node&)>& edit) {
  Netlist out;
  out.reserve(ntk.num_nodes());
  for (std::uint32_t id = 0; id < ntk.num_nodes(); ++id) {
    Netlist::Node node = ntk.node(id);
    edit(id, node);
    const auto fanins = std::span<const std::uint32_t>(node.fanin.data(),
                                                       node.nfanin);
    switch (node.kind) {
      case CellKind::kPi:
        out.add_pi();
        break;
      case CellKind::kConst0:
      case CellKind::kConst1:
        out.add_const(node.kind == CellKind::kConst1);
        break;
      case CellKind::kT1:
        out.add_t1(fanins[0], fanins[1], fanins[2]);
        break;
      default:
        if (cell_is_t1_tap(node.kind)) {
          out.add_t1_tap(fanins[0], node.kind);
        } else {
          out.add_cell(node.kind, fanins);
        }
    }
  }
  for (const auto& po : ntk.pos()) out.add_po(po.driver);
  return out;
}

/// The signal a node carries once DFF and buffer chains are looked through.
std::uint32_t chain_root(const Netlist& ntk, std::uint32_t id) {
  while (ntk.kind(id) == CellKind::kDff || ntk.kind(id) == CellKind::kBuf) {
    id = ntk.fanins(id)[0];
  }
  return id;
}

/// Three seeded corruptions of `ntk`, each absent when the netlist has
/// nothing to corrupt: one PO repointed at another node, one DFF re-sourced
/// from the nearest lower node that carries a different signal, and one T1
/// tap switched to a kind its core does not yet use.
std::array<std::optional<Netlist>, 3> corruptions(const Netlist& ntk,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  std::array<std::optional<Netlist>, 3> out;
  std::vector<std::uint32_t> dffs, taps;
  for (std::uint32_t id = 0; id < ntk.num_nodes(); ++id) {
    if (ntk.kind(id) == CellKind::kDff) dffs.push_back(id);
    if (ntk.is_tap(id)) taps.push_back(id);
  }

  if (ntk.num_pos() > 0 && ntk.num_nodes() > 1) {
    const auto po = static_cast<std::uint32_t>(rng.below(ntk.num_pos()));
    std::uint32_t driver = ntk.pos()[po].driver;
    while (driver == ntk.pos()[po].driver || ntk.is_t1(driver)) {
      driver = static_cast<std::uint32_t>(rng.below(ntk.num_nodes()));
    }
    out[0] = ntk;
    out[0]->set_po_driver(po, driver);
  }

  if (!dffs.empty()) {
    const std::uint32_t dff = dffs[rng.below(dffs.size())];
    const std::uint32_t root = chain_root(ntk, dff);
    for (std::uint32_t v = dff; v-- > 0;) {
      if (ntk.is_t1(v) || chain_root(ntk, v) == root) continue;
      out[1] = rebuilt(ntk, [&](std::uint32_t id, Netlist::Node& node) {
        if (id == dff) node.fanin[0] = v;
      });
      break;
    }
  }

  if (!taps.empty()) {
    const std::uint32_t tap = taps[rng.below(taps.size())];
    const std::uint32_t core = ntk.fanins(tap)[0];
    bool used[kNumCellKinds] = {};
    for (const std::uint32_t t : taps) {
      if (ntk.fanins(t)[0] == core) used[static_cast<int>(ntk.kind(t))] = true;
    }
    constexpr CellKind kTaps[] = {CellKind::kT1TapS, CellKind::kT1TapC,
                                  CellKind::kT1TapQ, CellKind::kT1TapCn,
                                  CellKind::kT1TapQn};
    for (const CellKind kind : kTaps) {
      if (used[static_cast<int>(kind)]) continue;
      out[2] = rebuilt(ntk, [&](std::uint32_t id, Netlist::Node& node) {
        if (id == tap) node.kind = kind;
      });
      break;
    }
  }
  return out;
}

/// Folds the check's result at rounds 0, 1, 3 and 8 into `d`.
void digest_checks(const Aig& aig, const Netlist& ntk, PinDigest& d) {
  for (const int rounds : {0, 1, 3, 8}) {
    const std::optional<Mismatch> m = find_sim_mismatch(aig, ntk, rounds, 1);
    d.add(m.has_value());
    if (!m.has_value()) continue;
    d.add(m->po_index);
    d.add(static_cast<std::int64_t>(m->pi_words.size()));
    for (const std::uint64_t w : m->pi_words) {
      d.add(static_cast<std::int64_t>(w));
    }
  }
}

struct PinnedSim {
  const char* circuits;  // a Table-I name, or "fuzz" for the fuzz set
  int phases;            // 0 on the fuzz row: its flows cycle 1φ, 4φ, 4φ+T1
  bool use_t1;
  std::uint64_t digest;
};

TEST(Sim, FirstMismatchIsPinned) {
  // Captured from the check that simulated one round at a time, every DFF
  // a wire.  Each flow's materialized netlist is checked clean and under
  // each of its seeded corruptions; the digest folds whether a mismatch
  // was found, its PO and its stimulus.  A failure prints the row as it is
  // now.
  // clang-format off
  static const PinnedSim kRows[] = {
      // circuits   phi t1     digest
      {"adder",      1, false, 0xc883ff7862a67f01ull},
      {"adder",      4, false, 0x32108a733e2154d5ull},
      {"adder",      4, true,  0x77e2b7300b431112ull},
      {"c7552",      1, false, 0x26de1f473a820c6dull},
      {"c7552",      4, false, 0x9b1d870cc0e6139aull},
      {"c7552",      4, true,  0x0e2eb528d674ea93ull},
      {"c6288",      1, false, 0xdf5deea001115ab3ull},
      {"c6288",      4, false, 0xc4c10189ecd0ba76ull},
      {"c6288",      4, true,  0xfb49eb013b65d72dull},
      {"sin",        1, false, 0xf376264fe256c42bull},
      {"sin",        4, false, 0x6d07b1e9678cd339ull},
      {"sin",        4, true,  0x59bce3b1b2259369ull},
      {"voter",      1, false, 0x786d7a514865f734ull},
      {"voter",      4, false, 0x4f40f34a70eeb734ull},
      {"voter",      4, true,  0xf4809195b5d58714ull},
      {"square",     1, false, 0x8042bfad3893c4a3ull},
      {"square",     4, false, 0x1e7216d7a0315bcaull},
      {"square",     4, true,  0xe845be6fa3c95b06ull},
      {"multiplier", 1, false, 0x4b248382f644425bull},
      {"multiplier", 4, false, 0xf81d8ae87b32c944ull},
      {"multiplier", 4, true,  0x2f8c1ce16c75acc3ull},
      {"log2",       1, false, 0xd4f5209e62855e79ull},
      {"log2",       4, false, 0xc9a28e5dacca4b7aull},
      {"log2",       4, true,  0x90116fd11a26c2caull},
      {"fuzz",       0, false, 0xbc15a44b70c2eb27ull},
  };
  // clang-format on
  for (const PinnedSim& row : kRows) {
    const std::string name = row.circuits;
    PinDigest d;
    const int flows = name == "fuzz" ? 40 : 1;
    for (int i = 0; i < flows; ++i) {
      const std::string gen =
          name == "fuzz" ? "fuzz" + std::to_string(10 + 9 * i) : name;
      const int phases = row.phases > 0 ? row.phases : (i % 3 == 0 ? 1 : 4);
      const bool use_t1 = row.phases > 0 ? row.use_t1 : i % 3 == 2;
      const Aig aig = gen::make_named(gen);
      const Netlist ntk = materialized(aig, phases, use_t1);
      digest_checks(aig, ntk, d);
      for (const std::optional<Netlist>& bad :
           corruptions(ntk, ntk.num_nodes())) {
        d.add(bad.has_value());
        if (bad.has_value()) digest_checks(aig, *bad, d);
      }
    }
    char now[128];
    std::snprintf(now, sizeof now, "{\"%s\", %d, %s, 0x%016llxull},",
                  row.circuits, row.phases, row.use_t1 ? "true" : "false",
                  static_cast<unsigned long long>(d.h));
    EXPECT_EQ(d.h, row.digest) << now;
  }
}

// --- Which round and PO the check reports -----------------------------------

/// A pair that agrees on POs 0 and 2 and differs on POs 1 and 3 exactly
/// where `differs` (an AIG literal over the PIs) is 1: the AIG's POs 1 and
/// 3 are `differs`, the netlist's constant 0 (so the lowest differing PO
/// is 1).  The netlist reaches POs 0 and 2 through a T1 carry tap and DFF,
/// NOT and buffer chains.
struct SimPair {
  Aig aig;
  Netlist ntk;
};

SimPair make_pair(
    std::uint32_t num_pis,
    const std::function<Lit(Aig&, const std::vector<Lit>&)>& differs) {
  SimPair p;
  std::vector<Lit> pis;
  std::vector<std::uint32_t> ntk_pis;
  for (std::uint32_t i = 0; i < num_pis; ++i) {
    pis.push_back(p.aig.create_pi());
    ntk_pis.push_back(p.ntk.add_pi());
  }
  if (num_pis >= 3) {
    p.aig.create_po(p.aig.create_maj3(pis[0], pis[1], pis[2]));
    const auto core = p.ntk.add_t1(ntk_pis[0], ntk_pis[1], ntk_pis[2]);
    const auto carry = p.ntk.add_t1_tap(core, CellKind::kT1TapC);
    p.ntk.add_po(p.ntk.add_cell(CellKind::kDff, {carry}));
  } else {
    p.aig.create_po(Aig::kConst1);
    p.ntk.add_po(p.ntk.add_const(true));
  }
  const Lit diff = differs(p.aig, pis);
  const std::uint32_t zero = p.ntk.add_const(false);
  p.aig.create_po(diff);
  p.ntk.add_po(zero);
  p.aig.create_po(lit_not(pis.back()));
  std::uint32_t x = p.ntk.add_cell(CellKind::kDff, {ntk_pis.back()});
  x = p.ntk.add_cell(CellKind::kNot, {x});
  x = p.ntk.add_cell(CellKind::kDff, {x});
  p.ntk.add_po(p.ntk.add_cell(CellKind::kBuf, {x}));
  p.aig.create_po(diff);
  p.ntk.add_po(zero);
  return p;
}

/// The minterm that is 1 exactly where PI i is `one(i)` for every i.
Lit minterm(Aig& aig, const std::vector<Lit>& pis,
            const std::function<bool(std::uint32_t)>& one) {
  Lit m = Aig::kConst1;
  for (std::uint32_t i = 0; i < pis.size(); ++i) {
    m = aig.create_and(m, lit_notif(pis[i], !one(i)));
  }
  return m;
}

/// Structured round `k` (after the random ones) of an `n`-PI check: 0 is
/// all-zero, 1 all-one, 2 + b walking ones over PIs 64b .. 64b + 63.
std::vector<std::uint64_t> structured_round(std::uint32_t n, int k) {
  std::vector<std::uint64_t> words(n, k == 1 ? ~0ull : 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (k >= 2 && i / 64 == static_cast<std::uint32_t>(k - 2)) {
      words[i] = 1ull << (i % 64);
    }
  }
  return words;
}

/// The check one round at a time through `simulate` and
/// `Netlist::simulate`, every DFF a wire: the reference the block kernel
/// must match mismatch for mismatch.
std::optional<Mismatch> round_by_round(const Aig& aig, const Netlist& ntk,
                                       int rounds, std::uint64_t seed) {
  const std::uint32_t n = aig.num_pis();
  std::vector<std::vector<std::uint64_t>> stimuli;
  std::uint64_t live = ~0ull;
  if (n <= Tt::kMaxVars) {
    std::vector<std::uint64_t> words(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      words[i] = Tt::var(static_cast<int>(n), static_cast<int>(i)).bits();
    }
    stimuli.push_back(words);
    if (n < 6) live = (1ull << (1u << n)) - 1;
  } else {
    Rng rng(seed);
    for (int r = 0; r < rounds; ++r) {
      std::vector<std::uint64_t> words(n);
      for (auto& w : words) w = rng.next();
      stimuli.push_back(words);
    }
    for (std::uint32_t k = 0; k < 2 + (n + 63) / 64; ++k) {
      stimuli.push_back(structured_round(n, static_cast<int>(k)));
    }
  }
  for (const std::vector<std::uint64_t>& words : stimuli) {
    const std::vector<std::uint64_t> a = simulate(aig, words);
    const std::vector<std::uint64_t> b = ntk.simulate(words);
    for (std::uint32_t po = 0; po < a.size(); ++po) {
      if (((a[po] ^ b[po]) & live) != 0) return Mismatch{po, words};
    }
  }
  return std::nullopt;
}

void expect_same(const std::optional<Mismatch>& got,
                 const std::optional<Mismatch>& want,
                 const std::string& label) {
  ASSERT_EQ(got.has_value(), want.has_value()) << label;
  if (!want.has_value()) return;
  EXPECT_EQ(got->po_index, want->po_index) << label;
  EXPECT_EQ(got->pi_words, want->pi_words) << label;
}

TEST(Sim, ReportsTheFirstMismatchingStructuredRound) {
  // 130 PIs: all-zero, all-one and three walking-ones rounds follow the
  // random ones.  Each pair differs in exactly one of them; with 0 to 9
  // random rounds before it, that round takes every position of a block.
  constexpr std::uint32_t n = 130;
  for (int k = 0; k < 5; ++k) {
    // Walking round k - 2 sets PI `hot` alone in bit 1; no PI is `hot` in
    // the all-zero and all-one rounds.
    const std::uint32_t hot =
        k >= 2 ? 64 * static_cast<std::uint32_t>(k - 2) + 1 : n;
    const SimPair p = make_pair(n, [&](Aig& aig, const std::vector<Lit>& pis) {
      return minterm(aig, pis,
                     [&](std::uint32_t i) { return k == 1 || i == hot; });
    });
    const std::optional<Mismatch> want = Mismatch{1, structured_round(n, k)};
    SimScratch scratch;
    for (int rounds = -3; rounds <= 9; ++rounds) {
      const std::string label = "round " + std::to_string(k) +
                                " after " + std::to_string(rounds);
      expect_same(find_sim_mismatch(p.aig, p.ntk, rounds, 1, &scratch), want,
                  label);
      expect_same(round_by_round(p.aig, p.ntk, rounds, 1), want, label);
    }
  }
}

TEST(Sim, MatchesTheRoundByRoundCheck) {
  // PO 1 differs where the first m of 70 PIs are all 1: one pattern in
  // 2^m, so the first mismatch falls in varying random rounds (m = 6, 9)
  // or, mostly, in the all-one round (m = 12).
  SimScratch scratch;
  for (const std::uint32_t m : {6u, 9u, 12u}) {
    const SimPair p = make_pair(70, [&](Aig& aig, const std::vector<Lit>& pis) {
      Lit all = Aig::kConst1;
      for (std::uint32_t i = 0; i < m; ++i) all = aig.create_and(all, pis[i]);
      return all;
    });
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      for (int rounds = 0; rounds <= 9; ++rounds) {
        const std::string label = "m " + std::to_string(m) + " seed " +
                                  std::to_string(seed) + " rounds " +
                                  std::to_string(rounds);
        expect_same(find_sim_mismatch(p.aig, p.ntk, rounds, seed, &scratch),
                    round_by_round(p.aig, p.ntk, rounds, seed), label);
      }
    }
  }
}

TEST(Sim, SmallDesignsAreCheckedExhaustively) {
  // The scratch first serves a 130-PI check, so every lane of its buffers
  // holds stale words when the small designs reuse it.
  SimScratch scratch;
  const auto zero = [](Aig&, const std::vector<Lit>&) { return Aig::kConst0; };
  const SimPair wide = make_pair(130, zero);
  EXPECT_FALSE(find_sim_mismatch(wide.aig, wide.ntk, 9, 1, &scratch));
  for (std::uint32_t n = 1; n <= 6; ++n) {
    // Differs only on the last live bit: the assignment with every PI 1.
    const SimPair last =
        make_pair(n, [](Aig& aig, const std::vector<Lit>& pis) {
          return minterm(aig, pis, [](std::uint32_t) { return true; });
        });
    std::vector<std::uint64_t> projections(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      projections[i] = Tt::var(static_cast<int>(n), static_cast<int>(i)).bits();
    }
    // Equivalent on all 2^n assignments.  Bits 2^n and up of the
    // projection words are dead: every PI reads 0 there, so no two designs
    // can differ in them alone, and the live-bit mask leaves them out.
    const SimPair same = make_pair(n, zero);
    for (const int rounds : {-3, 0, 1, 9}) {
      const std::string label =
          std::to_string(n) + " PIs, rounds " + std::to_string(rounds);
      expect_same(find_sim_mismatch(last.aig, last.ntk, rounds, 1, &scratch),
                  Mismatch{1, projections}, label);
      expect_same(find_sim_mismatch(same.aig, same.ntk, rounds, 1, &scratch),
                  std::nullopt, label);
      expect_same(round_by_round(last.aig, last.ntk, rounds, 1),
                  Mismatch{1, projections}, label);
    }
  }
}

}  // namespace
}  // namespace t1map::sfq
