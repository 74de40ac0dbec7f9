/// \file cells.hpp
/// \brief Analog RSFQ cell builders: JTL, DC/SFQ-style pulse injection,
/// DFF storage loop, and the T1 flip-flop of the paper's Fig. 1a.
///
/// The T1 cell is a quantizing two-junction loop (JQ, JC) — a classic
/// T flip-flop — extended with a readout comparator (JS, JR) on the R
/// input:
///
///   * pulse at T, loop state 0:  JQ switches → pulse on Q*  (state → 1)
///   * pulse at T, loop state 1:  JC switches → pulse on C*  (state → 0)
///   * pulse at R, loop state 1:  JS switches → pulse on S   (state → 0)
///   * pulse at R, loop state 0:  JR switches → pulse rejected
///
/// which is exactly the behaviour Fig. 1b plots (simulated here by
/// `simulate` over the RCSJ/MNA engine) and the behavioural contract the
/// netlist-level T1 model assumes.

#pragma once

#include "jj/circuit.hpp"
#include "jj/transient.hpp"

namespace t1map::jj {

/// A Josephson transmission line appended to `ckt`.
struct JtlHandle {
  int input;                 // drive pulses into this node
  int output;                // last JTL node
  std::vector<int> jjs;      // junction indices along the line
};

/// `stages` biased junctions separated by inductors.  Each passing SFQ
/// pulse advances every junction's phase by 2π.
JtlHandle make_jtl(Circuit& ckt, int stages, const JjParams& params = {},
                   double inductance = 4e-12, double bias_fraction = 0.7);

/// DFF storage loop with destructive readout.
struct DffHandle {
  int data_in;
  int clock_in;
  int jj_in;      // input junction
  int jj_store;   // storage junction: 2π advance = bit captured
  int jj_out;     // readout junction: 2π advance = 1 read out
};
DffHandle make_dff(Circuit& ckt, const JjParams& params = {});

/// Electrical parameters of the T1 cell (topology mirrors the paper's
/// Fig. 1a: quantizing loop JQ-L1-Y-L2 with the series readout pair JS/JC
/// completing the right branch, and a series escape junction JR coupling
/// the R input).  Defaults are the tuned operating point found by the
/// parameter sweeps in the test suite; they give clean toggle (Q*/C*
/// alternation over repeated cycles), solid fluxon storage and state-0
/// pulse rejection with >=10% drive margins.  The destructive S readout of
/// this layout reaches sin(φ_S) = 0.996 of critical, not 1; `bench_fig1b`
/// prints the measured peak.
struct T1Params {
  JjParams jq{0.20e-3, 4.0, 0.10e-12};
  JjParams jc{0.14e-3, 4.0, 0.10e-12};   // ratioed low: toggle partner
  JjParams js{0.165e-3, 5.0, 0.07e-12};  // series readout junction
  JjParams jr{0.20e-3, 5.0, 0.06e-12};   // escape junction on R
  double l_t = 2.0e-12;    // T input coupling
  double l1 = 2.0e-12;     // X -> Y (JQ side of the loop)
  double l2 = 10.0e-12;    // Y -> Z (main storage inductance)
  double l3 = 0.5e-12;     // W -> JC wiring
  double l_r = 2.0e-12;    // R input coupling
  double bias = 0.10e-3;   // I0 into Y
  double bias_s = 0.02e-3; // readout assist into Z (pre-loads JS)
  /// Drive requirements (used by simulate_t1's direct injection; a JTL
  /// front-end delivers equivalent fluxon energy).
  double t_pulse_amp = 0.45e-3;
  double r_pulse_amp = 0.33e-3;
  double r_pulse_width = 3e-12;
};

/// The T1 cell (Fig. 1a).  All outputs are junction indices: a 2π phase
/// advance on that junction is one output pulse.
struct T1Handle {
  int t_in;    // toggle input node (feed via JTL or pulse source)
  int r_in;    // reset/readout input node
  int jq;      // Q* output junction (toggle 0 -> 1)
  int jc;      // C* output junction (toggle 1 -> 0)
  int js;      // S output junction (readout of state 1)
  int jr;      // R-rejection junction (pulse escapes when state 0)
  int loop_inductor;  // index into circuit inductors: the storage loop
};
T1Handle make_t1(Circuit& ckt, const T1Params& params = {});

/// Convenience: the Fig. 1b experiment — T pulses and R pulses at given
/// times into a T1 cell; returns the transient plus the handle.
struct T1SimResult {
  T1Handle handle;
  TransientResult transient;
};
T1SimResult simulate_t1(const std::vector<double>& t_pulse_times,
                        const std::vector<double>& r_pulse_times,
                        double t_stop, const T1Params& params = {});

}  // namespace t1map::jj
