/// \file circuit.hpp
/// \brief Superconductive circuit description for the analog transient
/// simulator (the in-tree stand-in for JoSIM).
///
/// Elements: resistors, inductors, capacitors, DC current sources, pulsed
/// current sources, and Josephson junctions in the RCSJ (resistively and
/// capacitively shunted junction) model:
///
///   i_J = Ic·sin(φ) + V/Rn + C·dV/dt,      dφ/dt = (2π/Φ₀)·V.
///
/// Node 0 is ground.  Units are SI (volts, amps, henries, farads, seconds);
/// convenience constants for the usual pH/fF/ps scales are provided.

#pragma once

#include <cstdint>
#include <vector>

#include "common/require.hpp"

namespace t1map::jj {

/// Magnetic flux quantum h/2e [Wb].
constexpr double kPhi0 = 2.067833848e-15;

constexpr double pico = 1e-12;
constexpr double nano = 1e-9;
constexpr double micro = 1e-6;
constexpr double milli = 1e-3;
constexpr double femto = 1e-15;

/// RCSJ junction parameters.  Defaults give a critically damped junction
/// (McCumber βc = 2π·Ic·Rn²·C/Φ₀ ≈ 0.97) with Ic·Rn = 0.8 mV, typical of
/// externally shunted Nb RSFQ processes.
struct JjParams {
  double ic = 0.2e-3;    // critical current [A]
  double rn = 4.0;       // shunt resistance [Ω]
  double cap = 0.1e-12;  // junction + shunt capacitance [F]
};

struct PulseTrain {
  std::vector<double> times;  // pulse centers [s]
  /// Peak current [A].  0.30 mA at 3 ps injects exactly one fluxon into a
  /// biased 0.2 mA junction (verified by the JTL parameter sweep in the
  /// test suite; single-fluxon window ~0.25-0.30 mA).
  double amplitude = 0.3e-3;
  double width = 3e-12;  // full width [s] (raised-cosine)
};

class Circuit {
 public:
  /// Adds a node; returns its index (> 0; 0 is ground).
  int add_node() { return num_nodes_++; }
  int num_nodes() const { return num_nodes_; }

  void add_resistor(int n1, int n2, double ohms);
  void add_inductor(int n1, int n2, double henries);
  void add_capacitor(int n1, int n2, double farads);
  /// Returns the junction index (phase/pulse probes key off it).
  int add_jj(int n1, int n2, const JjParams& params = {});
  void add_dc_current(int from, int to, double amps);
  /// Pulsed current source injecting `train` from `from` into `to`.
  void add_pulse_current(int from, int to, PulseTrain train);

  /// Linear soft-start applied to every DC source: the bias reaches its
  /// nominal value at `seconds` (0 = ideal step).  Real bias supplies ramp;
  /// a hard step rings small readout junctions through their capacitance.
  void set_dc_ramp(double seconds) { dc_ramp_ = seconds; }

  // Element tables (read by the transient engine).
  struct Res { int n1, n2; double g; };
  struct Ind { int n1, n2; double l; };
  struct Cap { int n1, n2; double c; };
  struct Jj { int n1, n2; JjParams p; };
  struct Dc { int n1, n2; double i; };
  struct Pulse { int n1, n2; PulseTrain train; };

  const std::vector<Res>& resistors() const { return res_; }
  const std::vector<Ind>& inductors() const { return ind_; }
  const std::vector<Cap>& capacitors() const { return cap_; }
  const std::vector<Jj>& junctions() const { return jj_; }

  /// Total injected current of all sources into `node` at time `t`.
  double source_current(int node, double t) const;

 private:
  void check_node(int n) const {
    T1MAP_REQUIRE(n >= 0 && n < num_nodes(), "unknown circuit node");
  }

  double dc_ramp_ = 0.0;
  int num_nodes_ = 1;  // ground
  std::vector<Res> res_;
  std::vector<Ind> ind_;
  std::vector<Cap> cap_;
  std::vector<Jj> jj_;
  std::vector<Dc> dc_;
  std::vector<Pulse> pulse_;
};

/// Raised-cosine pulse value at time t for a single pulse centered at c.
double pulse_shape(double t, double center, double width, double amplitude);

}  // namespace t1map::jj
