#include "retime/dff_insert.hpp"

#include <algorithm>
#include <array>
#include <limits>

namespace t1map::retime {

namespace {

using sfq::CellKind;
using sfq::Netlist;

constexpr int kNoStage = std::numeric_limits<int>::min();

}  // namespace

MaterializeResult insert_dffs(const Netlist& ntk, const StageAssignment& sa) {
  T1MAP_REQUIRE(assignment_is_legal(ntk, sa),
                "insert_dffs requires a legal stage assignment");
  const int n = sa.num_phases;
  const std::uint32_t nn = ntk.num_nodes();

  const auto producer_sigma = [&](std::uint32_t u) {
    return ntk.is_const(u) ? kNoStage : sa.sigma[u];
  };
  // DFFs on the edge from driver u to a consumer at stage sv.
  const auto chain_need = [&](std::uint32_t u, int sv) {
    const int su = producer_sigma(u);
    return su == kNoStage ? 0 : std::max(0, ceil_div(sv - su, n) - 1);
  };

  // Pre-pass: each driver's shared chain is as long as its farthest
  // regular consumer or PO needs, so all chains fit one flat array with
  // per-driver offsets.  The T1 releases are solved here once per core,
  // which also gives the exact output size.
  std::vector<std::uint32_t> chain_off(nn + 1, 0);
  std::size_t num_cores = 0;
  for (std::uint32_t v = 0; v < nn; ++v) {
    num_cores += ntk.is_t1(v) ? 1 : 0;
    if (ntk.is_t1(v) || ntk.is_tap(v)) continue;
    for (const std::uint32_t u : ntk.fanins(v)) {
      chain_off[u + 1] = std::max<std::uint32_t>(
          chain_off[u + 1], chain_need(u, sa.sigma[v]));
    }
  }
  for (const auto& po : ntk.pos()) {
    chain_off[po.driver + 1] = std::max<std::uint32_t>(
        chain_off[po.driver + 1], chain_need(po.driver, sa.sigma_po));
  }
  std::vector<T1Releases> releases;
  releases.reserve(num_cores);
  std::size_t t1_dffs = 0;
  for (std::uint32_t v = 0; v < nn; ++v) {
    chain_off[v + 1] += chain_off[v];
    if (!ntk.is_t1(v)) continue;
    const auto f = ntk.fanins(v);
    std::array<int, 3> producers{};
    for (int j = 0; j < 3; ++j) {
      const int ps = producer_sigma(f[j]);
      producers[j] = (ps == kNoStage) ? 0 : ps;
    }
    releases.push_back(solve_t1_releases(producers, sa.sigma[v], n));
    t1_dffs += static_cast<std::size_t>(releases.back().dffs);
  }
  // chain[chain_off[u] + k] is element k + 1 of u's chain once built;
  // built[u] counts the elements made so far.
  std::vector<std::uint32_t> chain(chain_off[nn]);
  std::vector<std::uint32_t> built(nn, 0);

  MaterializeResult result;
  result.stages.num_phases = n;
  result.stages.sigma_po = sa.sigma_po;
  result.node_map.assign(nn, 0);
  Netlist& out = result.netlist;
  std::vector<int>& out_sigma = result.stages.sigma;
  const std::size_t out_nodes = nn + chain.size() + t1_dffs;
  out.reserve(out_nodes);
  out_sigma.reserve(out_nodes);

  const auto add_dff = [&](std::uint32_t u, std::uint32_t prev, int stage) {
    const std::uint32_t dff = out.add_cell(CellKind::kDff, {prev});
    out.set_origin(dff, ntk.origin(u));
    out_sigma.push_back(stage);
    ++result.num_dffs;
    return dff;
  };

  /// Materialized signal for edge u -> (consumer at stage sv).  Chain
  /// elements are built lazily, in consumer order, which is topologically
  /// sound: every consumer has a larger stage than any chain DFF it needs.
  const auto edge_signal = [&](std::uint32_t u, int sv) -> std::uint32_t {
    const int d = chain_need(u, sv);
    if (d == 0) return result.node_map[u];
    std::uint32_t* c = chain.data() + chain_off[u];
    for (std::uint32_t& k = built[u]; static_cast<int>(k) < d; ++k) {
      const std::uint32_t prev = k == 0 ? result.node_map[u] : c[k - 1];
      c[k] = add_dff(u, prev, sa.sigma[u] + static_cast<int>(k + 1) * n);
    }
    return c[d - 1];
  };

  /// Dedicated chain for a T1 input released at stage r.
  const auto t1_edge_signal = [&](std::uint32_t u, int r) -> std::uint32_t {
    const int su = producer_sigma(u);
    if (su == kNoStage || r == su) return result.node_map[u];
    const int count = ceil_div(r - su, n);
    std::uint32_t prev = result.node_map[u];
    for (int k = 1; k <= count; ++k) {
      prev = add_dff(u, prev, (k == count) ? r : su + k * n);
    }
    return prev;
  };

  std::uint32_t pi_index = 0;
  std::size_t t1_index = 0;
  for (std::uint32_t v = 0; v < nn; ++v) {
    const CellKind k = ntk.kind(v);
    std::uint32_t new_id;
    switch (k) {
      case CellKind::kPi:
        new_id = out.add_pi(ntk.pi_name(pi_index++));
        break;
      case CellKind::kConst0:
        new_id = out.add_const(false);
        break;
      case CellKind::kConst1:
        new_id = out.add_const(true);
        break;
      case CellKind::kT1: {
        const auto f = ntk.fanins(v);
        const T1Releases& rel = releases[t1_index++];
        std::array<std::uint32_t, 3> ins{};
        for (int j = 0; j < 3; ++j) {
          ins[j] = t1_edge_signal(f[j], rel.release[j]);
        }
        new_id = out.add_t1(ins[0], ins[1], ins[2]);
        break;
      }
      case CellKind::kT1TapS:
      case CellKind::kT1TapC:
      case CellKind::kT1TapQ:
      case CellKind::kT1TapCn:
      case CellKind::kT1TapQn:
        new_id = out.add_t1_tap(result.node_map[ntk.fanins(v)[0]], k);
        break;
      default: {
        // Logic cells and DFFs: rewire each fanin through the shared chain.
        const auto f = ntk.fanins(v);
        std::array<std::uint32_t, 3> ins{};
        for (std::size_t j = 0; j < f.size(); ++j) {
          ins[j] = edge_signal(f[j], sa.sigma[v]);
        }
        new_id = out.add_cell(k, std::span(ins.data(), f.size()));
        break;
      }
    }
    out_sigma.push_back(sa.sigma[v]);
    out.set_origin(new_id, ntk.origin(v));
    result.node_map[v] = new_id;
  }

  for (const auto& po : ntk.pos()) {
    out.add_po(edge_signal(po.driver, sa.sigma_po), po.name);
  }
  return result;
}

}  // namespace t1map::retime
