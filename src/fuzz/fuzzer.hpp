/// \file fuzzer.hpp
/// \brief CEC-oracle differential fuzzing of the mapping flow.
///
/// Each iteration generates a seeded random AIG (`random_aig`) and pushes
/// it through the three Table-I configurations (1φ baseline, nφ baseline,
/// nφ + T1), asserting for every one:
///   * the flow's own checks pass (timing validation, random simulation);
///   * SAT CEC proves the materialized netlist equivalent to the source
///     AIG — the external oracle, run by the fuzzer itself on results its
///     engines computed without CEC;
///   * run together as one `run_many` batch on `threads` workers, each
///     configuration's result is bit-identical to its serial run (netlist,
///     stage assignment and Table-I stats) — the determinism contract of
///     the engine's batch workers.
/// Independent of the flow, every AIG must survive AIGER (ASCII and
/// binary, byte-identical) and BLIF (digest-equal) round trips.
///
/// Failures are minimized by greedy PO removal followed by PO-cone
/// trimming (re-running the failing check as the oracle; for a batch
/// failure, the configuration's serial run and the whole batch) and dumped
/// as `.aag` repro files under `repro_dir`.
///
/// The `corrupt` hook mutates each materialized netlist before the CEC
/// oracle sees it; injecting a deliberate bug through it is how the test
/// suite proves the fuzzer actually catches and minimizes miscompiles.

#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "fuzz/random_aig.hpp"
#include "sfq/netlist.hpp"

namespace t1map::fuzz {

struct FuzzOptions {
  int iterations = 100;
  std::uint64_t seed = 1;
  /// Size template: per-iteration PI/PO/op counts are jittered below these
  /// bounds (and the seed replaced) so one run covers many shapes.
  RandomAigOptions aig;
  int threads = 4;        // workers of the determinism batch (1 = off)
  int phases = 4;         // the n of the nφ and T1 configurations
  /// Mutants per (iteration, configuration) for the incremental check:
  /// each mutant (one-gate edit of the iteration's AIG, see mutate.hpp)
  /// is mapped twice — on an engine warmed by the unedited AIG and on a
  /// cold engine with the pass memo off — and the two results must be
  /// bit-identical.  0 disables the check.
  int mutate = 0;
  int verify_rounds = 2;  // random-sim rounds inside the flow (cheap); the
                          // fuzzer's own SAT CEC is the real oracle
  std::string repro_dir = "fuzz-repros";  // minimized .aag files land here
  /// Test-only fault injection: applied to every materialized netlist
  /// before the CEC oracle (must be deterministic for minimization).
  std::function<void(sfq::Netlist&)> corrupt;
  std::ostream* log = nullptr;  // progress/failure lines; null = quiet
};

/// One confirmed, minimized failure.
struct FuzzFailure {
  int iteration = 0;
  std::string config;  // "baseline_1phi", "baseline_<n>phi", "t1",
                       // or "roundtrip" for format checks
  std::string check;   // "flow" | "cec" | "determinism" | "incremental" |
                       // "aiger_ascii" | "aiger_binary" | "blif"
  std::string detail;
  std::string repro_path;  // minimized .aag ("" when dumping failed)
  Aig minimized;
};

struct FuzzReport {
  int iterations = 0;
  long flows_run = 0;  // serial + batch flow executions
  double seconds = 0.0;
  std::vector<FuzzFailure> failures;
  bool ok() const { return failures.empty(); }
};

/// Runs the differential fuzzer.  Deterministic for fixed options.
FuzzReport run_fuzz(const FuzzOptions& options);

}  // namespace t1map::fuzz
