#include "t1/phase_ilp.hpp"

#include <algorithm>
#include <cmath>

namespace t1map::t1 {

namespace {
using sfq::CellKind;
using sfq::Netlist;
}  // namespace

PhaseIlpResult assign_stages_ilp(const Netlist& ntk,
                                 const PhaseIlpParams& params) {
  const int n = params.num_phases;
  T1MAP_REQUIRE(n >= 1, "need at least one phase");
  if (ntk.num_t1() > 0) {
    T1MAP_REQUIRE(n >= 3, "T1 cells require at least 3 phases");
  }

  // Depth bound: ASAP assignment fixes σ_PO unless the caller overrode it.
  const retime::StageAssignment asap = retime::assign_stages(
      ntk, retime::StageParams{n, /*optimize=*/false, 0});
  const int sigma_po = params.sigma_po > 0 ? params.sigma_po : asap.sigma_po;
  const double max_stage = sigma_po - 1;
  const double big_m = sigma_po + 2;

  ilp::Model model;
  constexpr int kNoVar = -1;

  // Stage variables (taps share their core's variable; PIs/constants fixed 0).
  std::vector<int> svar(ntk.num_nodes(), kNoVar);
  for (std::uint32_t v = 0; v < ntk.num_nodes(); ++v) {
    if (ntk.is_pi(v) || ntk.is_const(v) || ntk.is_tap(v)) continue;
    svar[v] = model.add_var(1.0, max_stage, 0.0, true);
  }
  for (std::uint32_t v = 0; v < ntk.num_nodes(); ++v) {
    if (ntk.is_tap(v)) svar[v] = svar[ntk.fanins(v)[0]];
  }

  // Stage expression helpers: PIs/constants contribute constant 0.
  const auto stage_var = [&](std::uint32_t u) { return svar[u]; };

  // Shared-chain variables per driver with at least one regular consumer.
  std::vector<int> mvar(ntk.num_nodes(), kNoVar);
  const auto chain_var = [&](std::uint32_t u) {
    if (mvar[u] == kNoVar) {
      mvar[u] = model.add_var(0.0, std::ceil(double(sigma_po) / n), 1.0,
                              true);
    }
    return mvar[u];
  };

  // Regular edges.
  for (std::uint32_t v = 0; v < ntk.num_nodes(); ++v) {
    const CellKind k = ntk.kind(v);
    if (ntk.is_pi(v) || ntk.is_const(v) || ntk.is_tap(v)) continue;
    if (k == CellKind::kT1) continue;  // handled below
    for (const std::uint32_t u : ntk.fanins(v)) {
      if (ntk.is_const(u)) continue;
      const int su = stage_var(u);
      const int sv = svar[v];
      if (su == kNoVar) {
        // PI driver: σ_u = 0; σ_v ≥ 1 already via bounds.
        model.add_constraint({{chain_var(u), double(n)}, {sv, -1.0}},
                             ilp::Rel::kGe, -double(n));
      } else {
        model.add_constraint({{sv, 1.0}, {su, -1.0}}, ilp::Rel::kGe, 1.0);
        model.add_constraint({{chain_var(u), double(n)},
                              {sv, -1.0},
                              {su, 1.0}},
                             ilp::Rel::kGe, -double(n));
      }
    }
  }

  // PO capture edges.
  for (const auto& po : ntk.pos()) {
    const std::uint32_t u = po.driver;
    if (ntk.is_const(u)) continue;
    const int su = stage_var(u);
    if (su == kNoVar) {
      model.add_constraint({{chain_var(u), double(n)}}, ilp::Rel::kGe,
                           double(sigma_po - n));
    } else {
      // σ_u ≤ σ_po − 1 via the variable upper bound already.
      model.add_constraint({{chain_var(u), double(n)}, {su, 1.0}},
                           ilp::Rel::kGe, double(sigma_po - n));
    }
  }

  // T1 cores: release variables with pairwise distinctness.
  for (std::uint32_t t = 0; t < ntk.num_nodes(); ++t) {
    if (!ntk.is_t1(t)) continue;
    const auto f = ntk.fanins(t);
    const int st = svar[t];
    int rvar[3];
    for (int j = 0; j < 3; ++j) {
      const std::uint32_t u = f[j];
      rvar[j] = model.add_var(0.0, max_stage, 0.0, true);
      const int su = stage_var(u);
      if (su == kNoVar) {
        // r_j >= 0 via bounds.
      } else {
        model.add_constraint({{rvar[j], 1.0}, {su, -1.0}}, ilp::Rel::kGe,
                             0.0);
      }
      // Window: σ_t − n ≤ r_j ≤ σ_t − 1.
      model.add_constraint({{rvar[j], 1.0}, {st, -1.0}}, ilp::Rel::kGe,
                           -double(n));
      model.add_constraint({{st, 1.0}, {rvar[j], -1.0}}, ilp::Rel::kGe, 1.0);
      // Chain cost: n·C_j ≥ r_j − σ_u.
      const int cvar = model.add_var(0.0, std::ceil(double(sigma_po) / n),
                                     1.0, true);
      if (su == kNoVar) {
        model.add_constraint({{cvar, double(n)}, {rvar[j], -1.0}},
                             ilp::Rel::kGe, 0.0);
      } else {
        model.add_constraint({{cvar, double(n)}, {rvar[j], -1.0}, {su, 1.0}},
                             ilp::Rel::kGe, 0.0);
      }
    }
    // Pairwise distinct releases via big-M disjunctions.
    for (int a = 0; a < 3; ++a) {
      for (int b = a + 1; b < 3; ++b) {
        const int bin = model.add_var(0.0, 1.0, 0.0, true);
        // r_a − r_b ≥ 1 − M·bin      (bin = 0  ⇒  r_a > r_b)
        model.add_constraint({{rvar[a], 1.0}, {rvar[b], -1.0}, {bin, big_m}},
                             ilp::Rel::kGe, 1.0);
        // r_b − r_a ≥ 1 − M·(1−bin)  (bin = 1  ⇒  r_b > r_a)
        model.add_constraint({{rvar[b], 1.0}, {rvar[a], -1.0}, {bin, -big_m}},
                             ilp::Rel::kGe, 1.0 - big_m);
      }
    }
  }

  const ilp::IlpSolution sol = ilp::solve_ilp(model, params.ilp);
  PhaseIlpResult result;
  result.bb_nodes = sol.nodes_explored;
  if (sol.status != ilp::Status::kOptimal) return result;

  result.solved = true;
  result.objective_dffs = std::lround(sol.objective);
  result.assignment.num_phases = n;
  result.assignment.sigma_po = sigma_po;
  result.assignment.sigma.assign(ntk.num_nodes(), 0);
  for (std::uint32_t v = 0; v < ntk.num_nodes(); ++v) {
    if (svar[v] != kNoVar) {
      result.assignment.sigma[v] =
          static_cast<int>(std::lround(sol.x[svar[v]]));
    }
  }
  T1MAP_REQUIRE(retime::assignment_is_legal(ntk, result.assignment),
                "ILP produced an illegal stage assignment");
  return result;
}

}  // namespace t1map::t1
