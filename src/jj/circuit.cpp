#include "jj/circuit.hpp"

#include <cmath>

namespace t1map::jj {

void Circuit::add_resistor(int n1, int n2, double ohms) {
  check_node(n1);
  check_node(n2);
  T1MAP_REQUIRE(ohms > 0, "resistance must be positive");
  res_.push_back(Res{n1, n2, 1.0 / ohms});
}

void Circuit::add_inductor(int n1, int n2, double henries) {
  check_node(n1);
  check_node(n2);
  T1MAP_REQUIRE(henries > 0, "inductance must be positive");
  ind_.push_back(Ind{n1, n2, henries});
}

void Circuit::add_capacitor(int n1, int n2, double farads) {
  check_node(n1);
  check_node(n2);
  T1MAP_REQUIRE(farads > 0, "capacitance must be positive");
  cap_.push_back(Cap{n1, n2, farads});
}

int Circuit::add_jj(int n1, int n2, const JjParams& params) {
  check_node(n1);
  check_node(n2);
  T1MAP_REQUIRE(params.ic > 0 && params.rn > 0 && params.cap > 0,
                "junction parameters must be positive");
  jj_.push_back(Jj{n1, n2, params});
  return static_cast<int>(jj_.size()) - 1;
}

void Circuit::add_dc_current(int from, int to, double amps) {
  check_node(from);
  check_node(to);
  dc_.push_back(Dc{from, to, amps});
}

void Circuit::add_pulse_current(int from, int to, PulseTrain train) {
  check_node(from);
  check_node(to);
  T1MAP_REQUIRE(train.width > 0, "pulse width must be positive");
  pulse_.push_back(Pulse{from, to, std::move(train)});
}

double pulse_shape(double t, double center, double width, double amplitude) {
  const double x = (t - center) / (width / 2.0);
  if (x <= -1.0 || x >= 1.0) return 0.0;
  return amplitude * 0.5 * (1.0 + std::cos(3.14159265358979323846 * x));
}

double Circuit::source_current(int node, double t) const {
  double i = 0;
  const double dc_scale =
      dc_ramp_ > 0 ? std::min(1.0, t / dc_ramp_) : 1.0;
  for (const Dc& s : dc_) {
    if (s.n2 == node) i += dc_scale * s.i;
    if (s.n1 == node) i -= dc_scale * s.i;
  }
  for (const Pulse& s : pulse_) {
    double v = 0;
    for (const double c : s.train.times) {
      v += pulse_shape(t, c, s.train.width, s.train.amplitude);
    }
    if (s.n2 == node) i += v;
    if (s.n1 == node) i -= v;
  }
  return i;
}

}  // namespace t1map::jj
