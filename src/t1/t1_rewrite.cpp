#include "t1/t1_rewrite.hpp"

#include <algorithm>
#include <unordered_map>

#include "aig/aig.hpp"

namespace t1map::t1 {

namespace {
using sfq::CellKind;
using sfq::Netlist;
}  // namespace

Netlist apply_t1_rewrite(const Netlist& ntk,
                         const std::vector<T1Candidate>& accepted,
                         RewriteStats* stats) {
  constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  // Node dispositions.
  std::vector<bool> removed(ntk.num_nodes(), false);
  // Root -> candidate index; instantiation happens at the first root.
  std::vector<std::uint32_t> root_candidate(ntk.num_nodes(), kNone);
  std::vector<bool> instantiated(accepted.size(), false);

  for (std::uint32_t c = 0; c < accepted.size(); ++c) {
    for (const std::uint32_t v : accepted[c].mffc) {
      T1MAP_REQUIRE(!removed[v], "overlapping T1 candidates");
      removed[v] = true;
    }
    for (const T1Match& m : accepted[c].matches) {
      root_candidate[m.node] = c;
    }
  }

  Netlist out;
  std::vector<std::uint32_t> map(ntk.num_nodes(), kNone);
  std::unordered_map<std::uint32_t, std::uint32_t> not_cache;

  RewriteStats local;
  const auto inverted_signal = [&](std::uint32_t new_sig) {
    if (const auto it = not_cache.find(new_sig); it != not_cache.end()) {
      return it->second;
    }
    const std::uint32_t inv = out.add_cell(CellKind::kNot, {new_sig});
    const std::uint32_t origin = out.origin(new_sig);
    out.set_origin(inv,
                   origin == Netlist::kNoOrigin ? origin : lit_not(origin));
    not_cache.emplace(new_sig, inv);
    ++local.input_inverters;
    return inv;
  };

  const auto instantiate = [&](std::uint32_t candidate_index) {
    const T1Candidate& cand = accepted[candidate_index];
    std::array<std::uint32_t, 3> ins{};
    for (int i = 0; i < 3; ++i) {
      std::uint32_t sig = map[cand.leaves[i]];
      T1MAP_REQUIRE(sig != kNone, "T1 leaf not materialized before root");
      if ((cand.input_polarity >> i) & 1u) sig = inverted_signal(sig);
      ins[i] = sig;
    }
    const std::uint32_t core = out.add_t1(ins[0], ins[1], ins[2]);
    ++local.t1_cores;
    // One tap per distinct output kind.
    std::array<std::uint32_t, 5> tap_id;
    tap_id.fill(kNone);
    for (const T1Match& m : cand.matches) {
      const int idx = static_cast<int>(m.output);
      if (tap_id[idx] == kNone) {
        tap_id[idx] = out.add_t1_tap(core, tap_kind(m.output));
        out.set_origin(tap_id[idx], ntk.origin(m.node));
        ++local.taps;
      }
      map[m.node] = tap_id[idx];
    }
    instantiated[candidate_index] = true;
  };

  std::uint32_t pi_index = 0;
  for (std::uint32_t v = 0; v < ntk.num_nodes(); ++v) {
    if (root_candidate[v] != kNone) {
      if (!instantiated[root_candidate[v]]) instantiate(root_candidate[v]);
      continue;  // map[v] set by instantiate()
    }
    if (removed[v]) {
      ++local.removed_cells;
      continue;
    }
    const CellKind k = ntk.kind(v);
    switch (k) {
      case CellKind::kPi:
        map[v] = out.add_pi(ntk.pi_name(pi_index));
        ++pi_index;
        break;
      case CellKind::kConst0:
        map[v] = out.add_const(false);
        break;
      case CellKind::kConst1:
        map[v] = out.add_const(true);
        break;
      default: {
        std::vector<std::uint32_t> ins;
        for (const std::uint32_t u : ntk.fanins(v)) {
          T1MAP_REQUIRE(map[u] != kNone, "fanin of surviving node removed");
          ins.push_back(map[u]);
        }
        map[v] = out.add_cell(k, ins);
        break;
      }
    }
    out.set_origin(map[v], ntk.origin(v));
  }

  for (const auto& po : ntk.pos()) {
    T1MAP_REQUIRE(map[po.driver] != kNone, "PO driver removed");
    out.add_po(map[po.driver], po.name);
  }

  if (stats != nullptr) {
    long old_area = 0;
    for (std::uint32_t v = 0; v < ntk.num_nodes(); ++v) {
      old_area += sfq::cell_area_jj(ntk.kind(v));
    }
    long new_area = 0;
    for (std::uint32_t v = 0; v < out.num_nodes(); ++v) {
      new_area += sfq::cell_area_jj(out.kind(v));
    }
    local.cell_area_delta = old_area - new_area;
    local.removed_cells = 0;
    for (const auto& cand : accepted) {
      local.removed_cells += static_cast<long>(cand.mffc.size());
    }
    *stats = local;
  }
  out.check_well_formed();
  return out;
}

}  // namespace t1map::t1
