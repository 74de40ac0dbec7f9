// Ablation A3: optimality gap of the scalable coordinate-
// descent phase assignment against the exact ILP (our simplex + branch &
// bound) on small circuits, with and without T1 cells.  The ILP model is
// the paper's §II-B formulation.

#include <cstdio>
#include <vector>

#include "gen/arith.hpp"
#include "gen/iscas.hpp"
#include "sfq/mapper.hpp"
#include "t1/phase_ilp.hpp"
#include "t1/t1_detect.hpp"
#include "t1/t1_rewrite.hpp"

int main() {
  using namespace t1map;

  struct Case {
    const char* name;
    Aig aig;
  };
  std::vector<Case> cases;
  cases.push_back({"adder4", gen::ripple_adder(4)});
  cases.push_back({"adder6", gen::ripple_adder(6)});
  cases.push_back({"mult3", gen::array_multiplier(3)});
  cases.push_back({"addcmp4", gen::adder_comparator(4)});

  std::printf("Ablation: exact ILP vs heuristic phase assignment\n");
  std::printf("=================================================\n");
  std::printf("%-10s %3s %4s | %9s %9s %5s | %8s\n", "circuit", "n", "T1",
              "heur DFF", "ILP DFF", "gap", "BB nodes");

  for (auto& c : cases) {
    for (const bool use_t1 : {false, true}) {
      for (const int n : {1, 4}) {
        if (use_t1 && n < 3) continue;
        sfq::Netlist ntk = sfq::map_to_sfq(c.aig);
        if (use_t1) {
          const auto det = t1::detect_t1(ntk);
          if (!det.accepted.empty()) {
            ntk = t1::apply_t1_rewrite(ntk, det.accepted);
          }
        }

        const auto heur =
            retime::assign_stages(ntk, retime::StageParams{n, true});
        const long heur_dffs = retime::count_dffs(ntk, heur).total();

        t1::PhaseIlpParams params;
        params.num_phases = n;
        params.ilp.max_nodes = 500000;
        const auto ilp = t1::assign_stages_ilp(ntk, params);
        if (!ilp.solved) {
          std::printf("%-10s %3d %4s | %9ld %9s %5s | %8ld (limit)\n",
                      c.name, n, use_t1 ? "yes" : "no", heur_dffs, "-", "-",
                      ilp.bb_nodes);
          continue;
        }
        std::printf("%-10s %3d %4s | %9ld %9ld %4ld%% | %8ld\n", c.name, n,
                    use_t1 ? "yes" : "no", heur_dffs, ilp.objective_dffs,
                    ilp.objective_dffs > 0
                        ? (100 * (heur_dffs - ilp.objective_dffs)) /
                              ilp.objective_dffs
                        : 0,
                    ilp.bb_nodes);
      }
    }
  }
  std::printf("\ngap = (heuristic - optimal) / optimal, in %% DFFs; the\n"
              "heuristic is the flow default, the ILP the paper's exact "
              "formulation.\n");
  return 0;
}
