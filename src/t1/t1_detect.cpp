#include "t1/t1_detect.hpp"

#include <algorithm>

#include "common/hash_mix.hpp"

namespace t1map::t1 {

namespace {

using sfq::CellKind;
using sfq::Netlist;

constexpr int kInverterArea = 9;
constexpr std::uint32_t kNone = DetectScratch::kNone;

// Conflict-resolution flags in DetectScratch::claim.
constexpr std::uint8_t kClaimInterior = 1;  // node vanished inside a group
constexpr std::uint8_t kClaimRoot = 2;      // node replaced by a T1 tap
constexpr std::uint8_t kClaimLeaf = 4;      // node feeds an accepted T1

struct Target {
  std::uint64_t tt_bits;
  T1Output output;
};

/// The five target functions under input polarity `p`.
std::array<Target, 5> targets_for_polarity(std::uint8_t p) {
  const Tt x = tts::xor3().apply_polarity(p);
  const Tt m = tts::maj3().apply_polarity(p);
  const Tt o = tts::or3().apply_polarity(p);
  return {Target{x.bits(), T1Output::kS}, Target{m.bits(), T1Output::kC},
          Target{o.bits(), T1Output::kQ}, Target{(~m).bits(), T1Output::kCn},
          Target{(~o).bits(), T1Output::kQn}};
}

/// One row of the flat match-lookup table: a cut whose function equals
/// `tt_bits` realizes T1 output `output` under input polarity `polarity`.
/// Sorted by `tt_bits`, a cut resolves all its (polarity, output) matches
/// with one binary search instead of 5 x 8 truth-table compares.  Within
/// one polarity the five targets are distinct functions, so a cut matches
/// at most one output per polarity — the scan order across polarities only
/// permutes appends to *different* groups, which keeps per-group match
/// order (and thus the result) identical to the direct nested loop.
struct TargetRow {
  std::uint64_t tt_bits;
  std::uint8_t polarity;
  T1Output output;
};

std::vector<TargetRow> build_target_rows(int num_polarities) {
  std::vector<TargetRow> rows;
  rows.reserve(static_cast<std::size_t>(num_polarities) * 5);
  for (int p = 0; p < num_polarities; ++p) {
    for (const Target& t : targets_for_polarity(static_cast<std::uint8_t>(p))) {
      rows.push_back(TargetRow{t.tt_bits, static_cast<std::uint8_t>(p),
                               t.output});
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const TargetRow& a, const TargetRow& b) {
                     return a.tt_bits < b.tt_bits;
                   });
  return rows;
}

/// Area charged to a candidate: core + inverters for negated inputs and for
/// each distinct starred output kind in use.
long t1_area(std::uint8_t polarity, const std::vector<T1Match>& matches) {
  long area = sfq::kT1AreaJj + kInverterArea * __builtin_popcount(polarity);
  bool used[5] = {false, false, false, false, false};
  for (const T1Match& m : matches) {
    const int idx = static_cast<int>(m.output);
    if (!used[idx] && output_is_negated(m.output)) area += kInverterArea;
    used[idx] = true;
  }
  return area;
}

std::uint64_t hash_group_key(const std::array<std::uint32_t, 3>& leaves,
                             std::uint8_t polarity) {
  const auto mix = [](std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  };
  return mix((static_cast<std::uint64_t>(leaves[0]) << 32) | leaves[1]) ^
         mix((static_cast<std::uint64_t>(leaves[2]) << 3) | polarity);
}

/// Finds or inserts the group of (leaves, polarity) in the open-addressing
/// table; returns its index in `ws.groups`.
std::uint32_t group_of(DetectScratch& ws,
                       const std::array<std::uint32_t, 3>& leaves,
                       std::uint8_t polarity) {
  // Grow at 50% load; rehashing re-inserts from the flat group array.
  if ((ws.groups.size() + 1) * 2 > ws.table.size()) {
    std::size_t cap = ws.table.empty() ? 256 : ws.table.size() * 2;
    ws.table.assign(cap, 0);
    for (std::uint32_t g = 0; g < ws.groups.size(); ++g) {
      std::uint64_t h =
          hash_group_key(ws.groups[g].leaves, ws.groups[g].polarity);
      std::size_t slot = h & (cap - 1);
      while (ws.table[slot] != 0) slot = (slot + 1) & (cap - 1);
      ws.table[slot] = g + 1;
    }
  }
  const std::size_t mask = ws.table.size() - 1;
  std::size_t slot = hash_group_key(leaves, polarity) & mask;
  while (ws.table[slot] != 0) {
    const DetectScratch::Group& g = ws.groups[ws.table[slot] - 1];
    if (g.leaves == leaves && g.polarity == polarity) {
      return ws.table[slot] - 1;
    }
    slot = (slot + 1) & mask;
  }
  DetectScratch::Group fresh;
  fresh.leaves = leaves;
  fresh.polarity = polarity;
  ws.groups.push_back(fresh);
  ws.table[slot] = static_cast<std::uint32_t>(ws.groups.size());
  return static_cast<std::uint32_t>(ws.groups.size() - 1);
}

/// Bumps the epoch used by the `in_set`/`queued` stamp arrays, handling the
/// (theoretical) wrap after 2^32 candidates.
std::uint32_t next_epoch(DetectScratch& ws) {
  if (++ws.epoch == 0) {
    std::fill(ws.in_set.begin(), ws.in_set.end(), 0u);
    std::fill(ws.queued.begin(), ws.queued.end(), 0u);
    ws.epoch = 1;
  }
  return ws.epoch;
}

/// Group MFFC into `out`: matched roots plus every logic cell all of whose
/// consumers (including PO references) land inside the set.  Leaves never
/// join.  Runs over the frontier of fanins of set members (a max-heap, so
/// consumers — larger ids — are decided first), which is equivalent to the
/// textbook high-to-low full-range scan but touches only the group's
/// neighborhood instead of every node below the highest root.
void group_mffc(const Netlist& ntk, DetectScratch& ws,
                const std::array<std::uint32_t, 3>& leaves,
                const std::vector<T1Match>& matches,
                std::vector<std::uint32_t>& out) {
  const std::uint32_t epoch = next_epoch(ws);
  const auto is_leaf = [&](std::uint32_t v) {
    return v == leaves[0] || v == leaves[1] || v == leaves[2];
  };

  ws.members.clear();
  ws.frontier.clear();
  std::uint32_t hi = 0;
  for (const T1Match& m : matches) {
    ws.in_set[m.node] = epoch;
    ws.members.push_back(m.node);
    hi = std::max(hi, m.node);
  }
  const auto enqueue_fanins = [&](std::uint32_t v) {
    for (const std::uint32_t u : ntk.fanins(v)) {
      if (ws.queued[u] == epoch || ws.in_set[u] == epoch) continue;
      ws.queued[u] = epoch;
      ws.frontier.push_back(u);
      std::push_heap(ws.frontier.begin(), ws.frontier.end());
    }
  };
  for (const T1Match& m : matches) enqueue_fanins(m.node);

  while (!ws.frontier.empty()) {
    std::pop_heap(ws.frontier.begin(), ws.frontier.end());
    const std::uint32_t v = ws.frontier.back();
    ws.frontier.pop_back();
    // All ids above v are decided: future pushes are fanins of v or lower.
    if (ws.in_set[v] == epoch) continue;
    if (!sfq::cell_is_logic(ntk.kind(v)) || is_leaf(v) || ws.drives_po[v]) {
      continue;
    }
    const std::span<const std::uint32_t> outs = ws.fanouts[v];
    if (outs.empty()) continue;
    bool all_inside = true;
    for (const std::uint32_t w : outs) {
      if (w > hi || ws.in_set[w] != epoch) {
        all_inside = false;
        break;
      }
    }
    if (!all_inside) continue;
    ws.in_set[v] = epoch;
    ws.members.push_back(v);
    enqueue_fanins(v);
  }

  out.assign(ws.members.begin(), ws.members.end());
  std::sort(out.begin(), out.end());
}

}  // namespace

sfq::CellKind tap_kind(T1Output output) {
  switch (output) {
    case T1Output::kS: return CellKind::kT1TapS;
    case T1Output::kC: return CellKind::kT1TapC;
    case T1Output::kQ: return CellKind::kT1TapQ;
    case T1Output::kCn: return CellKind::kT1TapCn;
    case T1Output::kQn: return CellKind::kT1TapQn;
  }
  T1MAP_REQUIRE(false, "bad T1 output");
  return CellKind::kT1TapS;
}

bool output_is_negated(T1Output output) {
  return output == T1Output::kCn || output == T1Output::kQn;
}

std::uint64_t detect_params_key(const DetectParams& params) {
  std::uint64_t h = 0x2C4D6E8F1A3B5079ull;  // domain seed
  h = mix64(h ^ static_cast<std::uint64_t>(params.cuts.k));
  h = mix64(h ^ static_cast<std::uint64_t>(params.cuts.max_cuts));
  h = mix64(h ^ (params.allow_input_negation ? 1u : 0u));
  h = mix64(h ^ static_cast<std::uint64_t>(params.min_gain));
  return h;
}

DetectResult detect_t1(const Netlist& ntk, const DetectParams& params,
                       CutWorkspace* workspace, DetectScratch* scratch) {
  T1MAP_REQUIRE(ntk.num_t1() == 0,
                "detect_t1 expects a netlist without T1 cells");
  CutWorkspace local_ws;
  CutWorkspace& cut_ws = workspace != nullptr ? *workspace : local_ws;
  enumerate_cuts_into(ntk, params.cuts, cut_ws);
  const CutSet& cuts = cut_ws.cuts;

  DetectScratch local_scratch;
  DetectScratch& ws = scratch != nullptr ? *scratch : local_scratch;
  const std::uint32_t n = ntk.num_nodes();

  // Consumer lists + PO flags for MFFC computation (flat CSR, no per-node
  // vectors).
  ws.fanouts.build(n, [&](auto&& edge) {
    for (std::uint32_t v = 0; v < n; ++v) {
      for (const std::uint32_t u : ntk.fanins(v)) edge(u, v);
    }
  });
  ws.drives_po.assign(n, 0);
  for (const auto& po : ntk.pos()) ws.drives_po[po.driver] = 1;

  // Reset the group table and the mark arrays (capacity retained).
  ws.groups.clear();
  ws.match_pool.clear();
  std::fill(ws.table.begin(), ws.table.end(), 0u);
  if (ws.in_set.size() < n) {
    ws.in_set.resize(n, 0u);
    ws.queued.resize(n, 0u);
  }

  // Group matched cuts by (leaf set, polarity) through the hash table.
  const int num_polarities = params.allow_input_negation ? 8 : 1;
  const std::vector<TargetRow> target_rows = build_target_rows(num_polarities);
  for (std::uint32_t node = 0; node < n; ++node) {
    if (!sfq::cell_is_logic(ntk.kind(node))) continue;
    for (const Cut& cut : cuts[node]) {
      if (cut.leaves.size() != 3 || cut.is_trivial(node)) continue;
      bool const_leaf = false;
      for (const std::uint32_t l : cut.leaves) {
        if (ntk.is_const(l)) const_leaf = true;
      }
      if (const_leaf) continue;  // T1 data inputs must be pulse signals
      const std::uint64_t bits = cut.tt.bits();
      auto it = std::lower_bound(
          target_rows.begin(), target_rows.end(), bits,
          [](const TargetRow& row, std::uint64_t b) { return row.tt_bits < b; });
      for (; it != target_rows.end() && it->tt_bits == bits; ++it) {
        const std::array<std::uint32_t, 3> leaves{
            cut.leaves[0], cut.leaves[1], cut.leaves[2]};
        const std::uint32_t g = group_of(ws, leaves, it->polarity);
        const std::uint32_t rec =
            static_cast<std::uint32_t>(ws.match_pool.size());
        ws.match_pool.push_back(
            DetectScratch::MatchRec{node, it->output, kNone});
        DetectScratch::Group& grp = ws.groups[g];
        if (grp.tail == kNone) {
          grp.head = rec;
        } else {
          ws.match_pool[grp.tail].next = rec;
        }
        grp.tail = rec;
      }
    }
  }

  // Candidate construction walks the groups in (leaves, polarity) order —
  // the iteration order of the std::map this table replaced — so the
  // sort below sees the same input permutation and ties break identically.
  // A group with one match record can never become a candidate, so only
  // multi-record groups are sorted; the keys are unique, so dropping the
  // others keeps the order of the rest.
  ws.group_order.clear();
  for (std::uint32_t g = 0; g < ws.groups.size(); ++g) {
    if (ws.groups[g].head != ws.groups[g].tail) ws.group_order.push_back(g);
  }
  std::sort(ws.group_order.begin(), ws.group_order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const DetectScratch::Group& ga = ws.groups[a];
              const DetectScratch::Group& gb = ws.groups[b];
              return ga.leaves != gb.leaves ? ga.leaves < gb.leaves
                                            : ga.polarity < gb.polarity;
            });

  // Build candidates: per (leaves, polarity) group with >= 2 distinct roots.
  std::vector<T1Candidate> candidates;
  for (const std::uint32_t g : ws.group_order) {
    const DetectScratch::Group& grp = ws.groups[g];
    // One output per root: a root matching several targets (impossible
    // within one polarity) or duplicated cuts collapse to one entry,
    // keeping the first occurrence (epoch-marked, no per-group set).
    const std::uint32_t epoch = next_epoch(ws);
    std::vector<T1Match> matches;
    for (std::uint32_t rec = grp.head; rec != kNone;
         rec = ws.match_pool[rec].next) {
      const DetectScratch::MatchRec& m = ws.match_pool[rec];
      if (ws.in_set[m.node] == epoch) continue;
      ws.in_set[m.node] = epoch;
      matches.push_back(T1Match{m.node, m.output});
    }
    if (matches.size() < 2) continue;

    T1Candidate cand;
    cand.leaves = grp.leaves;
    cand.input_polarity = grp.polarity;
    cand.matches = std::move(matches);
    group_mffc(ntk, ws, cand.leaves, cand.matches, cand.mffc);
    long mffc_area = 0;
    for (const std::uint32_t v : cand.mffc) {
      mffc_area += sfq::cell_area_jj(ntk.kind(v));
    }
    cand.gain = mffc_area - t1_area(cand.input_polarity, cand.matches);
    candidates.push_back(std::move(cand));
  }

  // "Found": best profitable polarity variant per leaf set.  Candidates are
  // in (leaves, polarity) order, so each leaf set is one contiguous run.
  DetectResult result;
  for (std::size_t i = 0; i < candidates.size();) {
    long best = candidates[i].gain;
    std::size_t j = i + 1;
    while (j < candidates.size() &&
           candidates[j].leaves == candidates[i].leaves) {
      best = std::max(best, candidates[j].gain);
      ++j;
    }
    if (best >= params.min_gain) ++result.found;
    i = j;
  }

  // Overlap resolution, greedy by gain.  Three node dispositions interact:
  //   * interior MFFC nodes vanish — they may not be needed by anyone else;
  //   * matched roots are *replaced by taps* — their signal survives, so
  //     they may still serve as another group's leaf (this is exactly the
  //     ripple-carry chain: bit i's MAJ3 root feeds bit i+1's T1 inputs);
  //   * leaves must keep existing (not vanish as someone's interior node);
  //   * two leaves must not be roots of one earlier group with the same
  //     output kind: rewriting turns both into one tap, and the T1 would
  //     read a single signal twice.
  // Topological order of cuts guarantees the resulting tap-to-tap feeding
  // is acyclic (leaves always precede roots).
  std::sort(candidates.begin(), candidates.end(),
            [](const T1Candidate& a, const T1Candidate& b) {
              return a.gain != b.gain ? a.gain > b.gain : a.leaves < b.leaves;
            });
  ws.claim.assign(n, 0);
  ws.root_tap.resize(n);
  const auto same_tap = [&ws](std::uint32_t a, std::uint32_t b) {
    return (ws.claim[a] & ws.claim[b] & kClaimRoot) != 0 &&
           ws.root_tap[a] == ws.root_tap[b];
  };
  for (T1Candidate& cand : candidates) {
    if (cand.gain < params.min_gain) break;  // sorted: the rest are worse
    const std::uint32_t epoch = next_epoch(ws);  // root marks of this group
    for (const T1Match& m : cand.matches) ws.in_set[m.node] = epoch;

    bool ok = true;
    for (const std::uint32_t v : cand.mffc) {
      if (ws.claim[v] & (kClaimInterior | kClaimRoot)) {
        ok = false;  // node already removed or replaced elsewhere
        break;
      }
      if (ws.in_set[v] != epoch && (ws.claim[v] & kClaimLeaf)) {
        ok = false;  // interior removal would kill another group's input
        break;
      }
    }
    for (const std::uint32_t l : cand.leaves) {
      if (ws.claim[l] & kClaimInterior) ok = false;  // signal would vanish
    }
    const auto& l = cand.leaves;
    if (same_tap(l[0], l[1]) || same_tap(l[0], l[2]) || same_tap(l[1], l[2])) {
      ok = false;  // two T1 inputs would be one signal
    }
    if (!ok) continue;
    for (const std::uint32_t v : cand.mffc) {
      ws.claim[v] |= ws.in_set[v] == epoch ? kClaimRoot : kClaimInterior;
    }
    for (const T1Match& m : cand.matches) {
      ws.root_tap[m.node] =
          static_cast<std::uint32_t>(result.accepted.size()) * 5 +
          static_cast<std::uint32_t>(m.output);
    }
    for (const std::uint32_t leaf : cand.leaves) ws.claim[leaf] |= kClaimLeaf;
    result.accepted.push_back(std::move(cand));
  }
  result.used = static_cast<int>(result.accepted.size());

  return result;
}

}  // namespace t1map::t1
