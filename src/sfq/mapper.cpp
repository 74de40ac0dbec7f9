#include "sfq/mapper.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <span>
#include <unordered_map>

#include "aig/aig_digest.hpp"
#include "common/hash_mix.hpp"
#include "cut/cone_splice.hpp"

namespace t1map::sfq {

namespace {

/// Match tables: for each arity, tt bits -> realizable configs.
class MatchTables {
 public:
  MatchTables() {
    const CellKind kinds1[] = {CellKind::kBuf, CellKind::kNot};
    const CellKind kinds2[] = {CellKind::kAnd2, CellKind::kOr2,
                               CellKind::kXor2};
    const CellKind kinds3[] = {CellKind::kAnd3, CellKind::kOr3,
                               CellKind::kXor3, CellKind::kMaj3};
    build(1, kinds1, table1_);
    build(2, kinds2, table2_);
    build(3, kinds3, table3_);
  }

  const std::vector<CellConfig>& lookup(const Tt& tt) const {
    static const std::vector<CellConfig> kEmpty;
    switch (tt.num_vars()) {
      case 1: return table1_[tt.bits()];
      case 2: return table2_[tt.bits()];
      case 3: return table3_[tt.bits()];
      default: return kEmpty;
    }
  }

 private:
  template <std::size_t N, std::size_t K>
  void build(int arity, const CellKind (&kinds)[K],
             std::array<std::vector<CellConfig>, N>& table) {
    const int not_area = cell_area_jj(CellKind::kNot);
    for (const CellKind kind : kinds) {
      // NOT / BUF do not re-enter as modifiers of themselves.
      const bool is_inverterish =
          kind == CellKind::kBuf || kind == CellKind::kNot;
      const Tt base = cell_tt(kind);
      const std::uint32_t num_masks = 1u << arity;
      for (std::uint32_t in_neg = 0; in_neg < num_masks; ++in_neg) {
        if (is_inverterish && in_neg != 0) continue;
        for (int out_neg = 0; out_neg < 2; ++out_neg) {
          if (is_inverterish && out_neg != 0) continue;
          Tt tt = base.apply_polarity(in_neg);
          if (out_neg != 0) tt = ~tt;
          const int area = cell_area_jj(kind) +
                           not_area * __builtin_popcount(in_neg) +
                           (out_neg != 0 ? not_area : 0);
          CellConfig config{kind, static_cast<std::uint8_t>(in_neg),
                            out_neg != 0, area};
          insert(table[tt.bits()], config);
        }
      }
    }
  }

  static void insert(std::vector<CellConfig>& configs,
                     const CellConfig& config) {
    // Keep the cheapest config per (input_neg, output_neg) profile.  The
    // covering DP is polarity-aware, so differently-negated variants of the
    // same function are genuinely different choices (an output-negated cell
    // serves complemented consumers for free).
    for (CellConfig& existing : configs) {
      if (existing.input_neg == config.input_neg &&
          existing.output_neg == config.output_neg) {
        if (config.area < existing.area) existing = config;
        return;
      }
    }
    configs.push_back(config);
  }

  std::array<std::vector<CellConfig>, 4> table1_;
  std::array<std::vector<CellConfig>, 16> table2_;
  std::array<std::vector<CellConfig>, 256> table3_;
};

const MatchTables& match_tables() {
  static const MatchTables tables;
  return tables;
}

/// Removes non-support variables, returning the compressed table and the
/// surviving leaf ids (subset of `leaves` in order).
Tt compress_support(const Tt& tt, std::span<const std::uint32_t> leaves,
                    std::vector<std::uint32_t>& active_leaves) {
  active_leaves.clear();
  const std::uint32_t support = tt.support_mask();
  std::vector<int> where;
  int next = 0;
  for (int v = 0; v < tt.num_vars(); ++v) {
    if (support & (1u << v)) {
      active_leaves.push_back(leaves[v]);
      where.push_back(next++);
    } else {
      where.push_back(0);  // placeholder; variable unused
    }
  }
  const int new_arity = next;
  // Project: evaluate tt with non-support vars fixed to 0.
  Tt reduced(new_arity);
  for (std::uint64_t i = 0; i < reduced.num_bits(); ++i) {
    std::uint64_t src = 0;
    for (int v = 0; v < tt.num_vars(); ++v) {
      if ((support & (1u << v)) && ((i >> where[v]) & 1u)) {
        src |= (1ull << v);
      }
    }
    if (tt.bit(src)) reduced.set_bit(i, true);
  }
  return reduced;
}

}  // namespace

const std::vector<CellConfig>& match_function(const Tt& tt) {
  return match_tables().lookup(tt);
}

std::uint64_t mapper_params_key(const MapperParams& params) {
  std::uint64_t h = 0x8F5E2D1B4A6C3907ull;  // domain seed
  h = mix64(h ^ static_cast<std::uint64_t>(params.cuts.k));
  h = mix64(h ^ static_cast<std::uint64_t>(params.cuts.max_cuts));
  return h;
}

Netlist map_to_sfq(const Aig& aig, const MapperParams& params,
                   MapStats* stats, CutWorkspace* workspace,
                   const MapParallel& parallel, MapMemo* memo,
                   MapReuse* reuse) {
  T1MAP_REQUIRE(params.cuts.k >= 2 && params.cuts.k <= 3,
                "SFQ mapper supports cut sizes 2 and 3");
  CutWorkspace local_ws;
  CutWorkspace& ws = workspace != nullptr ? *workspace : local_ws;
  auto fanout = aig.fanout_counts();

  // --- Cone correspondence against the memoized previous run. -------------
  //
  // Splicing runs serially: after a small edit the dirty region is tiny, so
  // the parallel machinery would only add barrier costs.  Cold runs (no
  // usable memo) keep the level-parallel path.
  const std::uint64_t memo_key = mapper_params_key(params);
  std::vector<std::uint64_t> digests;
  ConeCorrespondence corr;
  bool splice = false;
  if (memo != nullptr) {
    aig_digest::cone_digests(aig, digests);
    if (memo->valid && memo->params_key == memo_key) {
      build_cone_correspondence(aig, digests, fanout, memo->digests,
                                memo->fanouts, corr);
      splice = corr.num_clean > 0;
    }
  }

  const bool level_parallel = !splice && parallel.pool != nullptr &&
                              parallel.pool->num_workers() > 1 &&
                              parallel.cuts != nullptr;
  if (splice) {
    enumerate_cuts_spliced(aig, params.cuts, ws, memo->cuts, corr);
  } else if (level_parallel) {
    enumerate_cuts_parallel(aig, params.cuts, ws, parallel.pool,
                            *parallel.cuts);
  } else {
    enumerate_cuts_into(aig, params.cuts, ws);
  }
  const CutSet& cuts = ws.cuts;

  // --- Covering DP: best (raw arrival, flow) choice per AND node. ----------
  //
  // Polarity-aware: `arrival[n]` is when the chosen cell's *raw* output
  // fires and `planned_neg[n]` records whether that raw output is the
  // complement of the node function.  A consumer wanting polarity p pays an
  // inverter stage only when p differs from the leaf's raw polarity, which
  // is how complement chains (carry logic, XNOR roots) map without inverter
  // towers.
  std::vector<MapChoice> best(aig.num_nodes());
  std::vector<int> arrival(aig.num_nodes(), 0);
  std::vector<double> flow(aig.num_nodes(), 0.0);
  // One byte per node (not vector<bool>): level-parallel workers write
  // distinct indices concurrently, and packed bits sharing a word would make
  // those writes racy read-modify-writes.
  std::vector<std::uint8_t> planned_neg(aig.num_nodes(), 0);

  const int not_stage = 1;
  const auto leaf_arrival = [&](std::uint32_t leaf, bool want_neg) {
    return arrival[leaf] + ((planned_neg[leaf] != 0) != want_neg ? not_stage : 0);
  };

  // The full DP step for one AND node.  Reads arrival/flow/planned_neg only
  // at the cut leaves — strictly lower topological levels — and writes only
  // this node's slots, which is what makes whole levels safe to compute
  // concurrently.  `active` is caller-provided scratch (one per worker).
  const auto compute_node = [&](std::uint32_t n,
                                std::vector<std::uint32_t>& active) {
    MapChoice chosen;
    for (const Cut& cut : cuts[n]) {
      if (cut.is_trivial(n)) continue;
      const Tt reduced = compress_support(cut.tt, cut.leaves, active);
      if (reduced.num_vars() == 0) {
        // Constant function of the leaves (reconvergence artifact): realize
        // below via the fanin-pair fallback instead.
        continue;
      }
      for (const CellConfig& config : match_function(reduced)) {
        int arr = 0;
        double fl = static_cast<double>(config.area);
        for (std::size_t i = 0; i < active.size(); ++i) {
          const bool want_neg = ((config.input_neg >> i) & 1u) != 0;
          arr = std::max(arr, leaf_arrival(active[i], want_neg));
          fl += flow[active[i]];
        }
        arr += 1;  // the cell itself; raw polarity = config.output_neg
        fl /= std::max<std::uint32_t>(1, fanout[n]);
        const bool better =
            !chosen.valid || arr < chosen.arrival ||
            (arr == chosen.arrival && fl < chosen.flow - 1e-12);
        if (better) {
          chosen.num_leaves = static_cast<std::uint8_t>(active.size());
          std::copy(active.begin(), active.end(), chosen.leaves.begin());
          chosen.tt = reduced;
          chosen.config = config;
          chosen.arrival = arr;
          chosen.flow = fl;
          chosen.valid = true;
        }
      }
    }

    // Fallback: the fanin-pair AND2 with edge complements as inverters.
    if (!chosen.valid) {
      const Lit f0 = aig.fanin0(n);
      const Lit f1 = aig.fanin1(n);
      MapChoice fb;
      fb.leaves[0] = lit_node(f0);
      fb.leaves[1] = lit_node(f1);
      fb.num_leaves = 2;
      std::uint8_t neg = 0;
      if (lit_is_complemented(f0)) neg |= 1;
      if (lit_is_complemented(f1)) neg |= 2;
      fb.tt = tts::and2().apply_polarity(neg);
      fb.config = CellConfig{CellKind::kAnd2, neg, false,
                             cell_area_jj(CellKind::kAnd2) +
                                 cell_area_jj(CellKind::kNot) *
                                     __builtin_popcount(neg)};
      fb.arrival = 1 + std::max(leaf_arrival(fb.leaves[0], (neg & 1) != 0),
                                leaf_arrival(fb.leaves[1], (neg & 2) != 0));
      fb.flow = 0.0;
      fb.valid = true;
      chosen = fb;
    }

    best[n] = chosen;
    arrival[n] = chosen.arrival;
    flow[n] = chosen.flow;
    planned_neg[n] = chosen.config.output_neg ? 1 : 0;
  };

  if (reuse != nullptr) {
    reuse->cones_total = aig.num_ands();
    reuse->cones_reused = 0;
  }
  if (splice) {
    // Clean nodes take the memoized DP verdict with leaf ids translated;
    // the clean predicate (digests, fanouts, fanins transitively) makes the
    // copied arrival/flow/polarity exactly what recomputation would yield.
    std::vector<std::uint32_t> active;
    for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
      if (!aig.is_and(n)) continue;
      const std::uint32_t o = corr.new_to_old[n];
      if (o == kNoCorrespondent) {
        compute_node(n, active);
        continue;
      }
      MapChoice c = memo->choices[o];
      T1MAP_ASSERT(c.valid);
      for (std::uint8_t i = 0; i < c.num_leaves; ++i) {
        c.leaves[i] = corr.old_to_new[c.leaves[i]];
        T1MAP_ASSERT(c.leaves[i] != kNoCorrespondent);
      }
      best[n] = c;
      arrival[n] = c.arrival;
      flow[n] = c.flow;
      planned_neg[n] = c.config.output_neg ? 1 : 0;
      if (reuse != nullptr) ++reuse->cones_reused;
    }
  } else if (level_parallel) {
    // Level 0 is PIs/constants (no DP state); every level >= 1 is all AND
    // nodes.  Narrow levels run inline — same rationale as cut enumeration.
    const LevelSchedule& levels = parallel.cuts->levels;
    WorkerPool& pool = *parallel.pool;
    const int num_workers = pool.num_workers();
    std::vector<std::vector<std::uint32_t>> active_scratch(
        static_cast<std::size_t>(num_workers));
    for (std::size_t l = 1; l < levels.num_levels(); ++l) {
      const std::span<const std::uint32_t> ids = levels.level(l);
      if (ids.size() < kMinParallelLevelNodes) {
        for (const std::uint32_t id : ids) {
          compute_node(id, active_scratch[0]);
        }
        continue;
      }
      pool.run([&](int w) {
        const std::size_t begin = ids.size() * w / num_workers;
        const std::size_t end = ids.size() * (w + 1) / num_workers;
        for (std::size_t i = begin; i < end; ++i) {
          compute_node(ids[i], active_scratch[static_cast<std::size_t>(w)]);
        }
      });
    }
  } else {
    std::vector<std::uint32_t> active;
    for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
      if (aig.is_and(n)) compute_node(n, active);
    }
  }

  // --- Cover extraction: mark required nodes from the POs. -----------------
  std::vector<bool> required(aig.num_nodes(), false);
  std::vector<std::uint32_t> stack;
  for (const Lit po : aig.pos()) {
    const std::uint32_t n = lit_node(po);
    if (aig.is_and(n) && !required[n]) {
      required[n] = true;
      stack.push_back(n);
    }
  }
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    for (const std::uint32_t leaf : best[n].leaf_span()) {
      if (aig.is_and(leaf) && !required[leaf]) {
        required[leaf] = true;
        stack.push_back(leaf);
      }
    }
  }

  // --- Netlist construction (AIG id order = topological). ------------------
  //
  // Each mapped node keeps its *raw* cell output plus a polarity flag
  // (configs with output negation produce the complement).  Inverters are
  // created lazily and cached in both directions, so a consumer wanting the
  // complemented value of an output-negated cell taps the raw output for
  // free — the SFQ equivalent of AIG complemented-edge absorption.
  //
  // Every node records its AIG origin (netlist.hpp): a cell the literal of
  // the node it covers in its raw polarity, an inverter the complement of
  // its input's origin, a PI or constant its own literal.
  Netlist ntk;
  constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  std::vector<std::uint32_t> raw_signal(aig.num_nodes(), kNone);
  std::vector<bool> raw_negated(aig.num_nodes(), false);
  std::unordered_map<std::uint32_t, std::uint32_t> inverted;
  std::uint32_t const0 = kNone;

  MapStats local_stats;
  const auto get_inverted = [&](std::uint32_t sig) {
    if (const auto it = inverted.find(sig); it != inverted.end()) {
      return it->second;
    }
    const std::uint32_t inv = ntk.add_cell(CellKind::kNot, {sig});
    ntk.set_origin(inv, lit_not(ntk.origin(sig)));
    ++local_stats.cells;
    ++local_stats.inverters;
    inverted.emplace(sig, inv);
    inverted.emplace(inv, sig);  // NOT(NOT(x)) = x: reuse both ways
    return inv;
  };
  /// The node's value in the requested polarity.
  const auto get_signal = [&](std::uint32_t node, bool want_negated) {
    const std::uint32_t sig = raw_signal[node];
    T1MAP_ASSERT(sig != kNone);
    if (raw_negated[node] == want_negated) return sig;
    return get_inverted(sig);
  };

  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    const std::uint32_t pi = aig.pis()[i];
    raw_signal[pi] = ntk.add_pi(aig.pi_name(i));
    ntk.set_origin(raw_signal[pi], make_lit(pi));
  }

  for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
    if (!aig.is_and(n) || !required[n]) continue;
    const MapChoice& choice = best[n];
    T1MAP_ASSERT(choice.valid);

    std::vector<std::uint32_t> ins;
    ins.reserve(choice.num_leaves);
    for (std::size_t i = 0; i < choice.num_leaves; ++i) {
      const bool want_neg = ((choice.config.input_neg >> i) & 1u) != 0;
      ins.push_back(get_signal(choice.leaves[i], want_neg));
    }
    raw_signal[n] = ntk.add_cell(choice.config.kind, ins);
    raw_negated[n] = choice.config.output_neg;
    ntk.set_origin(raw_signal[n], make_lit(n, choice.config.output_neg));
    ++local_stats.cells;
  }

  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    const Lit po = aig.po(i);
    const std::uint32_t n = lit_node(po);
    std::uint32_t sig;
    if (aig.is_const0(n)) {
      if (lit_is_complemented(po)) {
        sig = ntk.add_const(true);
        ntk.set_origin(sig, Aig::kConst1);
      } else {
        if (const0 == kNone) {
          const0 = ntk.add_const(false);
          ntk.set_origin(const0, Aig::kConst0);
        }
        sig = const0;
      }
      ntk.add_po(sig, aig.po_name(i));
      continue;
    }
    ntk.add_po(get_signal(n, lit_is_complemented(po)), aig.po_name(i));
  }

  // --- Memo refill: this run becomes the baseline for the next one. --------
  //
  // Everything is moved, not copied — the workspace cut arena and the DP
  // choice vector are exactly the artifacts a future splice needs, and the
  // caller's workspace is reset at the top of every call anyway.
  if (memo != nullptr) {
    memo->digests = std::move(digests);
    memo->fanouts = std::move(fanout);
    memo->cuts = std::move(ws.cuts);
    memo->choices = std::move(best);
    memo->params_key = memo_key;
    memo->valid = true;
  }

  if (stats != nullptr) {
    // Depth in stages: longest PI-to-PO path over clocked cells.
    std::vector<int> level(ntk.num_nodes(), 0);
    for (std::uint32_t id = 0; id < ntk.num_nodes(); ++id) {
      int lv = 0;
      for (const std::uint32_t f : ntk.fanins(id)) {
        lv = std::max(lv, level[f]);
      }
      level[id] = lv + (cell_is_clocked(ntk.kind(id)) &&
                                !ntk.is_tap(id)
                            ? 1
                            : 0);
    }
    for (const auto& po : ntk.pos()) {
      local_stats.depth_stages = std::max(local_stats.depth_stages,
                                          level[po.driver]);
    }
    *stats = local_stats;
  }
  return ntk;
}

}  // namespace t1map::sfq
