#include "retime/stage_assign.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "common/csr.hpp"
#include "common/hash_mix.hpp"

namespace t1map::retime {

namespace {

using sfq::CellKind;
using sfq::Netlist;

constexpr int kNoStage = std::numeric_limits<int>::min();
constexpr std::uint32_t kNoNode = std::numeric_limits<std::uint32_t>::max();

/// Sanity band for stage values fed into sentinel-sensitive arithmetic:
/// anything outside is either the `kNoStage` sentinel leaking through or a
/// corrupted assignment, and offset/subtraction math on it would be signed
/// overflow (UB).  Real designs stay far below 2^30 stages.
constexpr int kMaxStage = 1 << 30;

/// Stage at which a fanin node's pulse is produced; kNoStage for constants
/// (their "pulses" are locally generated and need no balancing).
int producer_stage(const Netlist& ntk, const std::vector<int>& sigma,
                   std::uint32_t node) {
  if (ntk.is_const(node)) return kNoStage;
  return sigma[node];
}

/// Producer stages of core t's data inputs, as eq. (3) and the release
/// solver read them: constants count as stage 0 (their pulses still need a
/// distinct arrival slot), and pins driven by `mover` (a node, or a core
/// through its taps) read stage `s` instead.
std::array<int, 3> core_inputs(const Netlist& ntk,
                               const std::vector<int>& sigma, std::uint32_t t,
                               std::uint32_t mover = kNoNode, int s = 0) {
  std::array<int, 3> p{};
  const auto f = ntk.fanins(t);
  for (int j = 0; j < 3; ++j) {
    const std::uint32_t src = ntk.is_tap(f[j]) ? ntk.fanins(f[j])[0] : f[j];
    const int ps = producer_stage(ntk, sigma, f[j]);
    p[j] = src == mover ? s : (ps == kNoStage ? 0 : ps);
  }
  return p;
}

/// Per-node consumer lists (regular cells and T1 cores; taps excluded
/// because they share the core's physical cell).  CSR-backed: two flat
/// arrays per relation instead of one heap vector per node.
struct Consumers {
  /// One T1 data-input reference: consuming core + input index.
  struct T1Pin {
    std::uint32_t node;
    std::uint8_t pin;
  };
  // For each node: regular consumers' node ids.
  Csr<std::uint32_t> regular;
  // For each node: T1 cores consuming it (with input index).
  Csr<T1Pin> t1;
  // Whether the node drives at least one PO.
  std::vector<std::uint8_t> drives_po;
};

Consumers build_consumers(const Netlist& ntk) {
  Consumers c;
  const std::uint32_t n = ntk.num_nodes();
  c.regular.build(n, [&](auto&& edge) {
    for (std::uint32_t v = 0; v < n; ++v) {
      if (ntk.is_tap(v) || ntk.kind(v) == CellKind::kT1) continue;
      for (const std::uint32_t u : ntk.fanins(v)) {
        if (!ntk.is_const(u)) edge(u, v);
      }
    }
  });
  c.t1.build(n, [&](auto&& edge) {
    for (std::uint32_t v = 0; v < n; ++v) {
      if (ntk.kind(v) != CellKind::kT1) continue;
      const auto f = ntk.fanins(v);
      for (std::uint8_t j = 0; j < 3; ++j) {
        if (!ntk.is_const(f[j])) edge(f[j], Consumers::T1Pin{v, j});
      }
    }
  });
  c.drives_po.assign(n, 0);
  for (const auto& po : ntk.pos()) c.drives_po[po.driver] = 1;
  return c;
}

/// DFFs of a shared chain from a driver at `su` whose highest consumer (or
/// PO capture) sits at `top`; kNoStage on either side means no chain
/// (naive `top - su` on sentinel stages is signed-overflow UB).
long chain_dffs(int su, int top, int n) {
  if (su == kNoStage || top == kNoStage) return 0;
  const long gap = static_cast<long>(top) - su;
  if (gap <= 0) return 0;
  return (gap + n - 1) / n - 1;
}

/// DFFs of the shared chain from a driver at `su` to regular consumers.
/// Unplaced (kNoStage) consumers don't stretch the chain.
long driver_chain_dffs(int su, std::span<const std::uint32_t> consumers,
                       bool drives_po, int sigma_po,
                       const std::vector<int>& sigma, int n) {
  int max_sv = drives_po ? sigma_po : kNoStage;
  for (const std::uint32_t v : consumers) {
    if (sigma[v] != kNoStage) max_sv = std::max(max_sv, sigma[v]);
  }
  return chain_dffs(su, max_sv, n);
}

}  // namespace

int t1_min_stage(std::array<int, 3> s) {
  std::sort(s.begin(), s.end());
  // Constants participate with "stage 0" for feasibility purposes: their
  // pulse still needs a distinct arrival slot.
  for (int& v : s) {
    if (v == kNoStage) v = 0;
    T1MAP_REQUIRE(v > -kMaxStage && v < kMaxStage,
                  "t1_min_stage: producer stage out of range (sentinel "
                  "leaked into stage arithmetic?)");
  }
  return std::max({s[0] + 3, s[1] + 2, s[2] + 1});
}

T1Releases solve_t1_releases(const std::array<int, 3>& producer_stage,
                             int sigma_t1, int n) {
  T1MAP_REQUIRE(n >= 3, "T1 cells require at least 3 clock phases");
  T1MAP_REQUIRE(sigma_t1 > -kMaxStage && sigma_t1 < kMaxStage,
                "solve_t1_releases: sigma_t1 out of range");
  for (const int s : producer_stage) {
    T1MAP_REQUIRE(s > -kMaxStage && s < kMaxStage,
                  "solve_t1_releases: producer stage out of range");
  }
  const int window_lo = sigma_t1 - n;
  const int window_hi = sigma_t1 - 1;
  constexpr long kInfeasible = std::numeric_limits<long>::max();

  // Per-input release cost over the window, computed once: 0 when the
  // producer itself releases at r, else one dedicated chain ending at r.
  // Slots before the producer are infeasible.  This runs in the innermost
  // loops of stage optimization, so the window lives on the stack for the
  // phase counts the CLI admits.
  constexpr int kStackWindow = 64;
  long stack_buf[3 * kStackWindow];
  std::vector<long> heap_buf;
  long* cost = stack_buf;
  if (n > kStackWindow) {
    heap_buf.resize(3 * static_cast<std::size_t>(n));
    cost = heap_buf.data();
  }
  for (int j = 0; j < 3; ++j) {
    const int s = producer_stage[j];
    for (int r = window_lo; r <= window_hi; ++r) {
      long& slot = cost[j * n + (r - window_lo)];
      if (r < s) {
        slot = kInfeasible;
      } else if (r == s) {
        slot = 0;  // released by the producer itself
      } else {
        slot = ceil_div(r - s, n);  // dedicated chain ending at r
      }
    }
  }
  const long* cost0 = cost;
  const long* cost1 = cost + n;
  const long* cost2 = cost + 2 * n;

  // Lexicographically-first minimum over distinct (r0, r1, r2); partial
  // sums already at or above the best prune whole subtrees (costs are
  // non-negative, so they cannot recover).
  T1Releases best{{0, 0, 0}, kInfeasible};
  for (int i0 = 0; i0 < n; ++i0) {
    const long c0 = cost0[i0];
    if (c0 == kInfeasible || c0 >= best.dffs) continue;
    for (int i1 = 0; i1 < n; ++i1) {
      const long c1 = cost1[i1];
      if (i1 == i0 || c1 == kInfeasible || c0 + c1 >= best.dffs) continue;
      for (int i2 = 0; i2 < n; ++i2) {
        const long c2 = cost2[i2];
        if (i2 == i0 || i2 == i1 || c2 == kInfeasible) continue;
        const long total = c0 + c1 + c2;
        if (total < best.dffs) {
          best = T1Releases{{window_lo + i0, window_lo + i1, window_lo + i2},
                            total};
        }
      }
    }
  }
  T1MAP_REQUIRE(best.dffs != kInfeasible,
                "T1 release assignment infeasible: eq. (3) violated");
  return best;
}

namespace {

/// Local legality of node v's fanin-side constraints under `sigma`.
bool fanin_side_ok(const Netlist& ntk, const std::vector<int>& sigma,
                   std::uint32_t v, int n) {
  const CellKind k = ntk.kind(v);
  if (k == CellKind::kPi || ntk.is_const(v)) return true;
  if (ntk.is_tap(v)) return sigma[v] == sigma[ntk.fanins(v)[0]];
  if (k == CellKind::kT1) {
    if (n < 3) return false;
    return sigma[v] >= t1_min_stage(core_inputs(ntk, sigma, v));
  }
  for (const std::uint32_t u : ntk.fanins(v)) {
    const int ps = producer_stage(ntk, sigma, u);
    if (ps != kNoStage && sigma[v] <= ps) return false;
  }
  return true;
}

}  // namespace

bool assignment_is_legal(const Netlist& ntk, const StageAssignment& sa) {
  if (static_cast<std::uint32_t>(sa.sigma.size()) != ntk.num_nodes()) {
    return false;
  }
  for (std::uint32_t v = 0; v < ntk.num_nodes(); ++v) {
    if (ntk.is_pi(v) || ntk.is_const(v)) {
      if (sa.sigma[v] != 0) return false;
      continue;
    }
    if (!fanin_side_ok(ntk, sa.sigma, v, sa.num_phases)) return false;
  }
  for (const auto& po : ntk.pos()) {
    const int ps = producer_stage(ntk, sa.sigma, po.driver);
    if (ps != kNoStage && sa.sigma_po <= ps) return false;
  }
  return true;
}

DffCount count_dffs(const Netlist& ntk, const StageAssignment& sa) {
  const Consumers cons = build_consumers(ntk);
  const int n = sa.num_phases;
  DffCount count;

  for (std::uint32_t u = 0; u < ntk.num_nodes(); ++u) {
    if (ntk.is_const(u) || ntk.is_t1(u)) continue;
    count.regular += driver_chain_dffs(sa.sigma[u], cons.regular[u],
                                       cons.drives_po[u] != 0, sa.sigma_po,
                                       sa.sigma, n);
  }
  for (std::uint32_t t = 0; t < ntk.num_nodes(); ++t) {
    if (!ntk.is_t1(t)) continue;
    count.t1 +=
        solve_t1_releases(core_inputs(ntk, sa.sigma, t), sa.sigma[t], n).dffs;
  }
  return count;
}

namespace {

/// ASAP pass: earliest legal stage per node in topological (id) order —
/// longest-path seeding, one linear scan, no relaxation.
void asap(const Netlist& ntk, std::vector<int>& sigma) {
  sigma.assign(ntk.num_nodes(), 0);
  for (std::uint32_t v = 0; v < ntk.num_nodes(); ++v) {
    const CellKind k = ntk.kind(v);
    if (k == CellKind::kPi || ntk.is_const(v)) {
      sigma[v] = 0;
      continue;
    }
    if (ntk.is_tap(v)) {
      sigma[v] = sigma[ntk.fanins(v)[0]];
      continue;
    }
    if (k == CellKind::kT1) {
      sigma[v] = t1_min_stage(core_inputs(ntk, sigma, v));
      continue;
    }
    int lo = 1;
    for (const std::uint32_t u : ntk.fanins(v)) {
      const int ps = producer_stage(ntk, sigma, u);
      if (ps != kNoStage) lo = std::max(lo, ps + 1);
    }
    sigma[v] = lo;
  }
}

/// The top of a driver's shared chain: its highest consumer stage (the PO
/// capture stage included), how many consumer entries sit there, and the
/// highest stage below it.  Enough to price the chain with any one
/// consumer moved.
struct ChainTop {
  int top = kNoStage;
  int count = 0;
  int next = kNoStage;

  void add(int s) {
    if (s > top) {
      next = top;
      top = s;
      count = 1;
    } else if (s == top) {
      ++count;
    } else if (s > next) {
      next = s;
    }
  }
  /// Highest stage once the `entries` entries of a consumer at `s` leave.
  int without(int s, int entries) const {
    return (s == top && count <= entries) ? next : top;
  }
};

/// `solve_t1_releases(...).dffs` memoized on the slack triple
/// d_j = σ_T1 − producer_j.  A producer more than n stages back reaches
/// every window slot, and each further n stages add one DFF to every slot,
/// so d_j folds into (n, 2n] at a cost offset of ⌊(d_j − n − 1)/n⌋ (pinned
/// exhaustively by `T1Constraints.ReleaseCostShiftsPastTheWindow`).  The
/// cost is symmetric in the inputs, so the folded triple is sorted.  A
/// fixed direct-mapped table keeps the memo small at any phase count.
class ReleaseCostMemo {
 public:
  explicit ReleaseCostMemo(int n) : n_(n), slots_(kSlots) {}

  long cost(const std::array<int, 3>& producer, int sigma_t1) {
    std::array<int, 3> d{};
    long offset = 0;
    for (int j = 0; j < 3; ++j) {
      d[j] = sigma_t1 - producer[j];
      if (d[j] > n_) {
        const int cycles = (d[j] - n_ - 1) / n_;
        d[j] -= cycles * n_;
        offset += cycles;
      }
    }
    if (d[0] > d[1]) std::swap(d[0], d[1]);
    if (d[1] > d[2]) std::swap(d[1], d[2]);
    if (d[0] > d[1]) std::swap(d[0], d[1]);
    // Empty slots hold d = {0, 0, 0}; a slack below 1 is infeasible and
    // must reach the solver's contract check.
    T1MAP_REQUIRE(d[0] >= 1, "T1 release assignment infeasible: eq. (3) "
                             "violated");
    const std::uint32_t h = static_cast<std::uint32_t>(d[0]) * 0x9E3779B1u ^
                            static_cast<std::uint32_t>(d[1]) * 0x85EBCA77u ^
                            static_cast<std::uint32_t>(d[2]) * 0xC2B2AE3Du;
    Slot& slot = slots_[h >> (32 - kSlotBits)];
    if (slot.d != d) {
      slot.cost = solve_t1_releases({-d[0], -d[1], -d[2]}, 0, n_).dffs;
      slot.d = d;
    }
    return slot.cost + offset;
  }

 private:
  struct Slot {
    std::array<int, 3> d{};
    long cost = 0;
  };
  static constexpr int kSlotBits = 10;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  int n_;
  std::vector<Slot> slots_;
};

}  // namespace

std::uint64_t stage_params_key(const StageParams& params) {
  std::uint64_t h = 0x5B7D9F0213468ACEull;  // domain seed
  h = mix64(h ^ static_cast<std::uint64_t>(params.num_phases));
  h = mix64(h ^ (params.optimize ? 1u : 0u));
  h = mix64(h ^ static_cast<std::uint64_t>(params.max_sweeps));
  return h;
}

StageAssignment assign_stages(const Netlist& ntk, const StageParams& params) {
  T1MAP_REQUIRE(params.num_phases >= 1, "need at least one phase");
  if (ntk.num_t1() > 0) {
    T1MAP_REQUIRE(params.num_phases >= 3,
                  "T1 cells require at least 3 clock phases (distinct input "
                  "arrival slots)");
  }

  StageAssignment sa;
  sa.num_phases = params.num_phases;
  asap(ntk, sa.sigma);

  sa.sigma_po = 1;
  for (const auto& po : ntk.pos()) {
    const int ps = producer_stage(ntk, sa.sigma, po.driver);
    if (ps != kNoStage) sa.sigma_po = std::max(sa.sigma_po, ps + 1);
  }

  if (!params.optimize) return sa;

  const Consumers cons = build_consumers(ntk);
  const int n = params.num_phases;
  const std::uint32_t nn = ntk.num_nodes();

  // Tap lists per T1 core (cores move together with their taps).
  Csr<std::uint32_t> taps;
  taps.build(nn, [&](auto&& edge) {
    for (std::uint32_t v = 0; v < nn; ++v) {
      if (ntk.is_tap(v)) edge(ntk.fanins(v)[0], v);
    }
  });

  // --- Frontier-based coordinate descent -------------------------------
  //
  // A node's move decision is a pure function of the stages in its 2-hop
  // neighborhood (its own, fanins', consumers', and — through shared
  // chains and T1 release windows — siblings': consumers of fanins and
  // fanins of consumers).  So a node whose neighborhood has not changed
  // since its last evaluation provably re-evaluates to "no move", and
  // skipping it cannot change the result.  Each applied move marks its
  // (conservatively widened) affected set dirty for both the remainder of
  // this sweep and the next one; everything else is skipped.  The move
  // sequence — and therefore every stage — is bit-for-bit identical to
  // the full fixed-point relaxation this replaces, but late sweeps on
  // deep netlists (long adder/CORDIC chains) touch only the shrinking
  // frontier instead of re-scanning every node, and the first no-move
  // sweep over an empty frontier is free.
  std::vector<std::uint8_t> dirty_cur(nn, 1);
  std::vector<std::uint8_t> dirty_next(nn, 0);
  const auto canon = [&](std::uint32_t x) {
    return ntk.is_tap(x) ? ntk.fanins(x)[0] : x;
  };
  const auto mark = [&](std::uint32_t x) {
    x = canon(x);
    dirty_cur[x] = 1;
    dirty_next[x] = 1;
  };
  // Movable out-edges of x: regular + T1 consumers, through taps when x is
  // a core (tap-core edges are internal pins).
  const auto for_each_consumer = [&](std::uint32_t x, auto&& fn) {
    const auto each_out = [&](std::uint32_t y) {
      for (const std::uint32_t w : cons.regular[y]) fn(w);
      for (const Consumers::T1Pin& p : cons.t1[y]) fn(p.node);
    };
    if (ntk.is_t1(x)) {
      for (const std::uint32_t tap : taps[x]) each_out(tap);
    } else {
      each_out(x);
    }
  };
  const auto for_each_fanin = [&](std::uint32_t x, auto&& fn) {
    for (const std::uint32_t u : ntk.fanins(x)) {
      if (!ntk.is_const(u)) fn(canon(u));
    }
  };
  const auto mark_affected = [&](std::uint32_t v) {
    mark(v);
    for_each_fanin(v, [&](std::uint32_t u) {
      mark(u);
      for_each_consumer(u, [&](std::uint32_t w) { mark(w); });
    });
    for_each_consumer(v, [&](std::uint32_t w) {
      mark(w);
      for_each_fanin(w, [&](std::uint32_t u) { mark(u); });
    });
  };

  // --- Scoring a node -------------------------------------------------
  //
  // The assignment is legal before every evaluation (ASAP is, and each
  // applied move keeps v and its direct consumers legal), so only the
  // constraints that mention v's stage s can fail, and together they form
  // an interval [lo, hi]: lo from v's fanins (or eq. (3) for a core), hi
  // from v's consumers — through its taps for a core — and the PO capture.
  // Every candidate in it is legal.  A candidate's cost is the DFFs that
  // depend on s: v's own chain (each tap's for a core), the release costs
  // of v's T1 consumers and of a core itself, and for a regular cell its
  // fanins' shared chains, where v is one consumer among others.  A chain
  // depends only on its top consumer stage, so each driver keeps a
  // `ChainTop`, refreshed lazily: a move of v changes only the consumer
  // lists of v's fanins, since cores and taps are never regular consumers.
  // A core's own fanin chains do not depend on its stage and are left out;
  // the decision is a strict `<` between integer sums, so dropping a
  // constant term changes no move.
  std::vector<ChainTop> tops(nn);
  std::vector<std::uint8_t> top_stale(nn, 1);
  const auto top_of = [&](std::uint32_t u) -> const ChainTop& {
    if (top_stale[u]) {
      ChainTop& t = tops[u];
      t = ChainTop{};
      if (cons.drives_po[u] != 0) t.add(sa.sigma_po);
      for (const std::uint32_t w : cons.regular[u]) t.add(sa.sigma[w]);
      top_stale[u] = 0;
    }
    return tops[u];
  };
  ReleaseCostMemo releases(n);
  // Largest s that keeps core t legal with v's pins at s: one of σt−1,
  // σt−2, σt−3 (the last is always legal, since t was legal before).
  const auto t1_upper = [&](std::uint32_t t, std::uint32_t v) {
    const int st = sa.sigma[t];
    for (const int s : {st - 1, st - 2}) {
      if (t1_min_stage(core_inputs(ntk, sa.sigma, t, v, s)) <= st) return s;
    }
    return st - 3;
  };

  std::vector<int> candidates;  // reused across nodes, no per-node heap

  for (int sweep = 0; sweep < params.max_sweeps; ++sweep) {
    bool changed = false;
    for (std::uint32_t v = 0; v < nn; ++v) {
      if (!dirty_cur[v]) continue;
      dirty_cur[v] = 0;
      if (ntk.is_pi(v) || ntk.is_const(v) || ntk.is_tap(v)) continue;
      const bool core = ntk.is_t1(v);
      // The nodes whose output stage is v's: the taps of a core, else v.
      const std::span<const std::uint32_t> outs =
          core ? taps[v] : std::span<const std::uint32_t>(&v, 1);
      const auto fanins = ntk.fanins(v);
      const int original = sa.sigma[v];

      int lo = 1;
      if (core) {
        lo = t1_min_stage(core_inputs(ntk, sa.sigma, v));
      } else {
        for (const std::uint32_t u : fanins) {
          const int ps = producer_stage(ntk, sa.sigma, u);
          if (ps != kNoStage) lo = std::max(lo, ps + 1);
        }
      }
      int hi = std::numeric_limits<int>::max();  // open until a consumer
      for (const std::uint32_t x : outs) {
        for (const std::uint32_t w : cons.regular[x]) {
          hi = std::min(hi, sa.sigma[w] - 1);
        }
        for (const Consumers::T1Pin& p : cons.t1[x]) {
          hi = std::min(hi, t1_upper(p.node, v));
        }
        if (cons.drives_po[x] != 0) hi = std::min(hi, sa.sigma_po - 1);
      }
      if (lo >= hi) continue;  // v cannot move

      // Candidate stages: breakpoints induced by fanins (σu+1, σu+1+n) and
      // consumers (σw−1, σw−1−n), kept when legal and not the current one.
      candidates.clear();
      const auto consider = [&](int s) {
        if (s >= lo && s <= hi && s != original) candidates.push_back(s);
      };
      for (const std::uint32_t u : fanins) {
        const int ps = producer_stage(ntk, sa.sigma, u);
        if (ps == kNoStage) continue;
        consider(ps + 1);
        consider(ps + 1 + n);
        consider(ps + 3);  // T1 eq. (3) slack
      }
      for (const std::uint32_t x : outs) {
        for (const std::uint32_t w : cons.regular[x]) {
          consider(sa.sigma[w] - 1);
          consider(sa.sigma[w] - 1 - n);
        }
        for (const Consumers::T1Pin& p : cons.t1[x]) {
          consider(sa.sigma[p.node] - 1);
          consider(sa.sigma[p.node] - 3);
          consider(sa.sigma[p.node] - n);
        }
        if (cons.drives_po[x] != 0) {
          consider(sa.sigma_po - 1);
          consider(sa.sigma_po - 1 - n);
        }
      }
      if (candidates.empty()) continue;
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());

      // The parts of the cost that do not move with s, computed once: a
      // core's producer stages, or per non-constant fanin of a regular cell
      // the top of its chain without v.
      std::array<int, 3> fixed{};
      if (core) {
        fixed = core_inputs(ntk, sa.sigma, v);
      } else {
        int j = 0;
        for (const std::uint32_t u : fanins) {
          if (ntk.is_const(u)) continue;
          // v is as many of u's consumers as u is listed among v's fanins,
          // and its chain counts once per listing below.
          const int entries =
              static_cast<int>(std::count(fanins.begin(), fanins.end(), u));
          fixed[j++] = top_of(u).without(original, entries);
        }
      }
      const auto cost_at = [&](int s) {
        long cost = 0;
        for (const std::uint32_t x : outs) {
          cost += chain_dffs(s, top_of(x).top, n);
          for (const Consumers::T1Pin& p : cons.t1[x]) {
            cost += releases.cost(core_inputs(ntk, sa.sigma, p.node, v, s),
                                  sa.sigma[p.node]);
          }
        }
        if (core) return cost + releases.cost(fixed, s);
        int j = 0;
        for (const std::uint32_t u : fanins) {
          if (ntk.is_const(u)) continue;
          cost += chain_dffs(sa.sigma[u], std::max(fixed[j++], s), n);
        }
        return cost;
      };

      long best_cost = cost_at(original);
      int best_stage = original;
      for (const int s : candidates) {
        const long cost = cost_at(s);
        if (cost < best_cost) {
          best_cost = cost;
          best_stage = s;
        }
      }
      if (best_stage != original) {
        sa.sigma[v] = best_stage;
        for (const std::uint32_t tap : taps[v]) sa.sigma[tap] = best_stage;
        if (!core) {
          for (const std::uint32_t u : fanins) top_stale[u] = 1;
        }
        mark_affected(v);
        changed = true;
      }
    }
    if (!changed) break;
    dirty_cur.swap(dirty_next);
    std::fill(dirty_next.begin(), dirty_next.end(), 0);
  }
  T1MAP_ASSERT(assignment_is_legal(ntk, sa));
  return sa;
}

}  // namespace t1map::retime
