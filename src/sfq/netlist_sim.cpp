#include "sfq/netlist_sim.hpp"

#include <algorithm>
#include <span>

#include "aig/aig_sim.hpp"
#include "common/rng.hpp"

namespace t1map::sfq {

namespace {

constexpr int W = kSimBlock;

// Value slots: the two constants, the PIs in order, then one slot per
// compiled cell in node order.  Slot `s` holds words `s * W .. s * W + W-1`,
// one per round of the block.
constexpr std::uint32_t kZeroSlot = 0;
constexpr std::uint32_t kOneSlot = 1;
constexpr std::uint32_t kFirstPiSlot = 2;

/// Compiles `ntk` into `ws.slot`, `ws.cells` and `ws.po_slot`.  DFFs and
/// buffers take their fanin's slot and T1 cores the constant-0 slot (they
/// carry no value, as in `Netlist::simulate_nodes`), so only logic cells
/// and taps remain.
void compile(const Netlist& ntk, SimScratch& ws) {
  ws.slot.resize(ntk.num_nodes());
  std::uint32_t* slot = ws.slot.data();
  ws.cells.clear();
  std::uint32_t next_pi = kFirstPiSlot;
  std::uint32_t next_cell = kFirstPiSlot + ntk.num_pis();
  for (std::uint32_t id = 0; id < ntk.num_nodes(); ++id) {
    const Netlist::Node& node = ntk.node(id);
    // Most nodes of a materialized netlist are DFFs: test them first.
    if (node.kind == CellKind::kDff || node.kind == CellKind::kBuf) {
      slot[id] = slot[node.fanin[0]];
      continue;
    }
    switch (node.kind) {
      case CellKind::kPi:
        slot[id] = next_pi++;
        break;
      case CellKind::kConst0:
      case CellKind::kT1:
        slot[id] = kZeroSlot;
        break;
      case CellKind::kConst1:
        slot[id] = kOneSlot;
        break;
      default: {
        const Netlist::Node& in =
            cell_is_t1_tap(node.kind) ? ntk.node(node.fanin[0]) : node;
        SimCell cell{node.kind, {kZeroSlot, kZeroSlot, kZeroSlot}};
        for (int k = 0; k < in.nfanin; ++k) cell.in[k] = slot[in.fanin[k]];
        ws.cells.push_back(cell);
        slot[id] = next_cell++;
      }
    }
  }
  ws.po_slot.clear();
  for (const Netlist::Po& po : ntk.pos()) {
    ws.po_slot.push_back(slot[po.driver]);
  }
}

template <typename F>
void lanes(std::uint64_t* out, F f) {
  for (int w = 0; w < W; ++w) out[w] = f(w);
}

/// Evaluates every compiled cell over one block, one kind dispatch per
/// cell; `v` holds the constant and PI slots on entry.
void simulate_cells(const std::vector<SimCell>& cells, std::uint32_t first,
                    std::uint64_t* v) {
  std::uint64_t* out = v + std::size_t{first} * W;
  for (const SimCell& cell : cells) {
    const std::uint64_t* a = v + std::size_t{cell.in[0]} * W;
    const std::uint64_t* b = v + std::size_t{cell.in[1]} * W;
    const std::uint64_t* c = v + std::size_t{cell.in[2]} * W;
    const auto maj = [&](int w) {
      return (a[w] & b[w]) | (a[w] & c[w]) | (b[w] & c[w]);
    };
    std::uint64_t r[W] = {};
    switch (cell.kind) {
      case CellKind::kNot:
        lanes(r, [&](int w) { return ~a[w]; });
        break;
      case CellKind::kAnd2:
        lanes(r, [&](int w) { return a[w] & b[w]; });
        break;
      case CellKind::kOr2:
        lanes(r, [&](int w) { return a[w] | b[w]; });
        break;
      case CellKind::kXor2:
        lanes(r, [&](int w) { return a[w] ^ b[w]; });
        break;
      case CellKind::kAnd3:
        lanes(r, [&](int w) { return a[w] & b[w] & c[w]; });
        break;
      case CellKind::kOr3:
      case CellKind::kT1TapQ:
        lanes(r, [&](int w) { return a[w] | b[w] | c[w]; });
        break;
      case CellKind::kXor3:
      case CellKind::kT1TapS:
        lanes(r, [&](int w) { return a[w] ^ b[w] ^ c[w]; });
        break;
      case CellKind::kMaj3:
      case CellKind::kT1TapC:
        lanes(r, maj);
        break;
      case CellKind::kT1TapCn:
        lanes(r, [&](int w) { return ~maj(w); });
        break;
      case CellKind::kT1TapQn:
        lanes(r, [&](int w) { return ~(a[w] | b[w] | c[w]); });
        break;
      default:  // compile() emits logic cells and taps only
        break;
    }
    std::copy_n(r, W, out);
    out += W;
  }
}

}  // namespace

std::optional<Mismatch> find_sim_mismatch(const Aig& aig, const Netlist& ntk,
                                          int rounds, std::uint64_t seed,
                                          SimScratch* scratch) {
  T1MAP_REQUIRE(aig.num_pis() == ntk.num_pis(),
                "equivalence check: PI count mismatch");
  T1MAP_REQUIRE(aig.num_pos() == ntk.num_pos(),
                "equivalence check: PO count mismatch");

  SimScratch local;
  SimScratch& ws = scratch != nullptr ? *scratch : local;
  compile(ntk, ws);

  // The rounds, in order: `rounds` random ones, all-zero, all-one, and one
  // walking-ones round per 64 PIs.  With at most 6 PIs, one exhaustive
  // round of projection words replaces them all.  Its bits past 2^n repeat
  // bit 0's all-zero assignment, so they hold no difference of their own.
  const std::uint32_t n = aig.num_pis();
  const bool exhaustive = n <= Tt::kMaxVars;
  const std::int64_t random_rounds = exhaustive ? 0 : std::max(rounds, 0);
  const std::int64_t total =
      exhaustive ? 1 : random_rounds + 2 + (n + 63) / 64;

  const std::uint32_t first_cell = kFirstPiSlot + n;
  ws.ntk_value.resize((first_cell + ws.cells.size()) * W);
  ws.aig_value.resize(std::size_t{aig.num_nodes()} * W);
  std::uint64_t* v = ws.ntk_value.data();
  std::fill_n(v + kZeroSlot * W, W, 0);
  std::fill_n(v + kOneSlot * W, W, ~0ull);
  // PI i's word in lane `lane` is pis[i * W + lane]; the AIG reads the
  // same words.  The last block's lanes past the last round keep stale
  // words, and no result reads them.
  std::uint64_t* pis = v + kFirstPiSlot * W;
  const std::span<const std::uint64_t> pi_block(pis, std::size_t{n} * W);

  Rng rng(seed);
  for (std::int64_t base = 0; base < total; base += W) {
    const int count = static_cast<int>(std::min<std::int64_t>(W, total - base));
    for (int lane = 0; lane < count; ++lane) {
      const std::int64_t r = base + lane;
      // -2 is the all-zero round, -1 the all-one round.
      const std::int64_t walk = r - random_rounds - 2;
      std::uint64_t* word = pis + lane;
      for (std::uint32_t i = 0; i < n; ++i, word += W) {
        if (exhaustive) {
          *word = Tt::var(static_cast<int>(n), static_cast<int>(i)).bits();
        } else if (r < random_rounds) {
          *word = rng.next();
        } else if (walk == -1) {
          *word = ~0ull;
        } else {
          *word = walk >= 0 && i / 64 == walk ? 1ull << (i % 64) : 0;
        }
      }
    }
    simulate_words<W>(aig, pi_block, ws.aig_value);
    simulate_cells(ws.cells, first_cell, v);

    const auto diff = [&](std::uint32_t po, int lane) {
      const Lit lit = aig.pos()[po];
      const std::uint64_t a =
          ws.aig_value[std::size_t{lit_node(lit)} * W + lane] ^
          (lit_is_complemented(lit) ? ~0ull : 0);
      return a ^ v[std::size_t{ws.po_slot[po]} * W + lane];
    };
    // The first round of the block with any difference, then its lowest PO.
    std::uint64_t any[W] = {};
    for (std::uint32_t po = 0; po < aig.num_pos(); ++po) {
      for (int lane = 0; lane < W; ++lane) any[lane] |= diff(po, lane);
    }
    int lane = 0;
    while (lane < count && any[lane] == 0) ++lane;
    if (lane == count) continue;
    std::uint32_t po = 0;
    while (diff(po, lane) == 0) ++po;
    Mismatch m{po, std::vector<std::uint64_t>(n)};
    for (std::uint32_t i = 0; i < n; ++i) {
      m.pi_words[i] = pis[std::size_t{i} * W + lane];
    }
    return m;
  }
  return std::nullopt;
}

bool random_equivalent(const Aig& aig, const Netlist& ntk, int rounds,
                       std::uint64_t seed, SimScratch* scratch) {
  return !find_sim_mismatch(aig, ntk, rounds, seed, scratch).has_value();
}

}  // namespace t1map::sfq
