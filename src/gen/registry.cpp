#include "gen/registry.hpp"

#include <algorithm>
#include <cctype>

#include "common/require.hpp"
#include "fuzz/random_aig.hpp"
#include "gen/arith.hpp"
#include "gen/cordic.hpp"
#include "gen/iscas.hpp"
#include "gen/log2.hpp"
#include "gen/voter.hpp"

namespace t1map::gen {

const std::vector<std::string>& table1_names() {
  static const std::vector<std::string> names = {
      "adder", "c7552", "c6288", "sin", "voter", "square", "multiplier",
      "log2"};
  return names;
}

Aig make_benchmark(const std::string& name) {
  // Sizes are chosen to reproduce each benchmark's structure at laptop-
  // friendly scale; the `adder` matches the paper's 128 bits exactly
  // (it is the headline result).
  if (name == "adder") return ripple_adder(128);
  if (name == "c7552") return adder_comparator(34);
  if (name == "c6288") return array_multiplier(16);
  if (name == "sin") return cordic_sin(16, 14);
  if (name == "voter") return majority_voter(1001);
  if (name == "square") return squarer(32);
  if (name == "multiplier") return array_multiplier(32);
  if (name == "log2") return log2_circuit(32, 16, 10);
  T1MAP_REQUIRE(false, "unknown benchmark: " + name);
  return Aig{};
}

namespace {

/// Splits `name` into a family prefix and a positive decimal suffix;
/// returns false when there is no suffix.
bool split_sized_name(const std::string& name, std::string& family,
                      int& size) {
  std::size_t digits = 0;
  while (digits < name.size() &&
         std::isdigit(static_cast<unsigned char>(
             name[name.size() - 1 - digits]))) {
    ++digits;
  }
  // 7 digits is already far beyond any buildable width; longer suffixes
  // would overflow std::stoi.
  if (digits == 0 || digits == name.size() || digits > 7) return false;
  family = name.substr(0, name.size() - digits);
  size = std::stoi(name.substr(name.size() - digits));
  return size > 0;
}

}  // namespace

Aig make_named(const std::string& name) {
  for (const std::string& known : table1_names()) {
    if (name == known) return make_benchmark(name);
  }
  std::string family;
  int size = 0;
  if (split_sized_name(name, family, size)) {
    if (family == "adder") return ripple_adder(size);
    if (family == "mul" || family == "multiplier") {
      return array_multiplier(size);
    }
    if (family == "square" || family == "squarer") return squarer(size);
    if (family == "voter") return majority_voter(size);
    if (family == "comparator") return adder_comparator(size);
    if (family == "sin" || family == "cordic") {
      return cordic_sin(size, std::max(1, size - 2));
    }
    if (family == "log2_") {
      // Validate the width here, where the generator name is known: the
      // downstream log2_circuit message cannot say which CLI/serve name
      // caused it.
      T1MAP_REQUIRE(size >= 4 && (size & (size - 1)) == 0,
                    "log2_" + std::to_string(size) +
                        ": invalid width — log2_<N> requires N to be a "
                        "power of two >= 4 (e.g. log2_16, log2_32)");
      // Same parameter shape as the Table-I `log2` (which log2_32 equals):
      // half-width mantissa, 5N/16 fraction bits, both inside the
      // generator's supported band.
      return log2_circuit(size, std::clamp(size / 2, 4, 24),
                          std::clamp(size * 5 / 16, 1, 24));
    }
    if (family == "fuzz") {
      // Seeded random AIG of ~N operator draws: the fuzzer's corpus made
      // addressable by name, so serve jobs and repro scripts can request
      // e.g. `fuzz200` and get the same graph everywhere.
      fuzz::RandomAigOptions options;
      options.seed = static_cast<std::uint64_t>(size);
      options.num_ops = static_cast<std::uint32_t>(size);
      options.num_pis = static_cast<std::uint32_t>(std::clamp(size / 6, 2, 24));
      options.num_pos = static_cast<std::uint32_t>(std::clamp(size / 10, 1, 16));
      return fuzz::random_aig(options);
    }
  }
  // Name every accepted family in the failure: callers of make_named are
  // often remote (serve-mode jobs, scripts), where "try --list-gens" is
  // not actionable advice.
  std::string known = "adder<N> mul<N> square<N> voter<N> comparator<N> "
                      "sin<N>/cordic<N> log2_<N> fuzz<N>";
  std::string table1;
  for (const std::string& t : table1_names()) {
    if (!table1.empty()) table1 += ' ';
    table1 += t;
  }
  T1MAP_REQUIRE(false, "unknown generator '" + name +
                           "' (parametric families: " + known +
                           "; Table-I names: " + table1 + ")");
  return Aig{};
}

std::string describe_generators() {
  return
      "Table-I benchmarks (paper sizes):\n"
      "  adder c7552 c6288 sin voter square multiplier log2\n"
      "Parametric generators (<family><width>):\n"
      "  adder<N>       N-bit ripple-carry adder, N >= 2    e.g. adder16\n"
      "  mul<N>         N-bit array multiplier, N >= 2      e.g. mul8\n"
      "  square<N>      N-bit squarer, N >= 2               e.g. square12\n"
      "  voter<N>       N-input majority voter, odd N >= 3  e.g. voter25\n"
      "  comparator<N>  N-bit adder+comparator, N >= 2 (c7552-like)\n"
      "  sin<N>         N-bit CORDIC sine, 4 <= N <= 40     e.g. sin12\n"
      "  cordic<N>      alias of sin<N> (deep ripple-chain stress)\n"
      "  log2_<N>       N-bit log2, N a power of two >= 4   e.g. log2_16\n"
      "  fuzz<N>        seeded random AIG, ~N ops, N >= 1   e.g. fuzz200\n";
}

const std::vector<PaperRow>& paper_table1() {
  // Table I of the paper, verbatim (kept as one row per line).
  // clang-format off
  static const std::vector<PaperRow> rows = {
      {"adder", 127, 127, 32768, 7963, 5958, 238419, 64784, 48844, 128, 32, 33},
      {"c7552", 17, 9, 2489, 713, 765, 32038, 19606, 19907, 16, 4, 5},
      {"c6288", 142, 142, 2625, 1431, 1349, 47198, 38840, 35386, 29, 8, 10},
      {"sin", 81, 77, 13416, 4631, 4714, 164938, 103443, 102806, 88, 22, 25},
      {"voter", 252, 252, 10651, 5779, 5584, 222101, 187997, 182972, 38, 10, 11},
      {"square", 861, 806, 44675, 16645, 14304, 525311, 329101, 301287, 126, 32, 32},
      {"multiplier", 824, 769, 58717, 14641, 13745, 682792, 374260, 356984, 136, 33, 36},
      {"log2", 644, 593, 86985, 33790, 33946, 978178, 605813, 598292, 160, 40, 47},
  };
  // clang-format on
  return rows;
}

const PaperRow* paper_row(const std::string& name) {
  for (const PaperRow& row : paper_table1()) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

}  // namespace t1map::gen
