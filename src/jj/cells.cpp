#include "jj/cells.hpp"

namespace t1map::jj {

JtlHandle make_jtl(Circuit& ckt, int stages, const JjParams& params,
                   double inductance, double bias_fraction) {
  T1MAP_REQUIRE(stages >= 1, "JTL needs at least one stage");
  JtlHandle handle;
  int prev = ckt.add_node();
  handle.input = prev;
  for (int s = 0; s < stages; ++s) {
    const int node = s == 0 ? prev : ckt.add_node();
    if (s > 0) {
      ckt.add_inductor(prev, node, inductance);
    }
    handle.jjs.push_back(ckt.add_jj(node, 0, params));
    ckt.add_dc_current(0, node, bias_fraction * params.ic);
    prev = node;
  }
  handle.output = prev;
  return handle;
}

T1Handle make_t1(Circuit& ckt, const T1Params& p) {
  T1Handle h;

  // Quantizing loop (Fig. 1a): JQ at X forms the left branch; the right
  // branch runs Y --L2--> Z --JS--> W --JC--> gnd, with the bias I0 and the
  // T input at the divider node Y.  With L1 < L2 the bias initially tilts
  // JQ ("blue dotted path", state 0): a T pulse switches JQ (Q* output)
  // and stores one fluxon, redirecting the current into the right branch
  // ("red solid path", state 1); the next T pulse then switches JC
  // (C* output, ratioed below JS so it goes first), annihilating the
  // fluxon.
  h.t_in = ckt.add_node();
  const int x = ckt.add_node();
  const int y = ckt.add_node();
  const int z = ckt.add_node();
  const int w = ckt.add_node();
  ckt.add_inductor(h.t_in, y, p.l_t);
  h.jq = ckt.add_jj(x, 0, p.jq);
  ckt.add_inductor(x, y, p.l1);
  const int loop_l2 = static_cast<int>(ckt.inductors().size());
  ckt.add_inductor(y, z, p.l2);
  h.loop_inductor = loop_l2;
  ckt.add_dc_current(0, y, p.bias);
  if (p.bias_s != 0.0) ckt.add_dc_current(0, z, p.bias_s);

  // Destructive readout: JS sits *inside* the right branch (series Z -> W,
  // with JC continuing W -> gnd), so a forward slip of JS is itself the
  // loop-flux reset and the S output.  The R pulse is coupled to pull
  // current out of W through the series escape junction JR:
  //   * state 1 (branch carrying the redirected loop current): the pull
  //     drives JS over critical -> S pulse + reset, while JC is pushed
  //     away from switching (no C* glitch);
  //   * state 0 (branch cold): JS stays sub-critical and the pulse escapes
  //     by switching JR -- "rejected" with no output.
  h.js = ckt.add_jj(z, w, p.js);
  const int v = ckt.add_node();
  ckt.add_inductor(w, v, p.l3);  // raises the JC-path impedance at readout
  h.jc = ckt.add_jj(v, 0, p.jc);
  h.r_in = ckt.add_node();
  const int rn = ckt.add_node();
  ckt.add_inductor(h.r_in, rn, p.l_r);
  h.jr = ckt.add_jj(rn, w, p.jr);

  return h;
}

DffHandle make_dff(Circuit& ckt, const JjParams& params) {
  // Structurally a T1 specialization: data = T, clock = R, output = S.
  (void)params;
  const T1Handle t1 = make_t1(ckt, T1Params{});
  DffHandle dff;
  dff.data_in = t1.t_in;
  dff.clock_in = t1.r_in;
  dff.jj_in = t1.jq;
  dff.jj_store = t1.jc;
  dff.jj_out = t1.js;
  return dff;
}

T1SimResult simulate_t1(const std::vector<double>& t_pulse_times,
                        const std::vector<double>& r_pulse_times,
                        double t_stop, const T1Params& params) {
  Circuit ckt;
  ckt.set_dc_ramp(10e-12);  // soft bias turn-on; settle before pulsing
  T1SimResult result{make_t1(ckt, params), {}};

  PulseTrain t_train;
  t_train.times = t_pulse_times;
  t_train.amplitude = params.t_pulse_amp;
  ckt.add_pulse_current(0, result.handle.t_in, t_train);

  PulseTrain r_train;
  r_train.times = r_pulse_times;
  r_train.amplitude = params.r_pulse_amp;
  r_train.width = params.r_pulse_width;
  ckt.add_pulse_current(result.handle.r_in, 0, r_train);

  TransientParams tp;
  tp.t_stop = t_stop;
  tp.dt = 0.05e-12;
  result.transient = simulate(ckt, tp);
  return result;
}

}  // namespace t1map::jj
