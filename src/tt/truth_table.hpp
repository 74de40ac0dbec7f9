/// \file truth_table.hpp
/// \brief Small truth tables (up to 6 variables) packed into one 64-bit word.
///
/// Truth tables are the lingua franca of the mapping flow: cut functions,
/// cell-library patterns and T1-matching targets are all expressed as `Tt`.
/// Bit `i` of the word stores f(x) for the input assignment whose binary
/// encoding is `i` (variable 0 is the least-significant input).
///
/// Six variables suffice for this library: cuts are enumerated with at most
/// 4 leaves and every SFQ library cell has at most 3 inputs.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/require.hpp"

namespace t1map {

namespace detail {

/// Bit pattern of the projection onto variable v in a 6-variable space,
/// truncated by the caller's mask.  kProjection[v] has bit i set iff bit v of
/// i is set.
inline constexpr std::uint64_t kProjection[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull,
};

}  // namespace detail

/// A complete Boolean function of `num_vars()` <= 6 variables.
///
/// Invariant: bits above position 2^num_vars() are zero, so `==` is plain
/// word comparison between tables of equal arity.
class Tt {
 public:
  static constexpr int kMaxVars = 6;

  /// Constant-zero function of `nvars` variables.
  explicit Tt(int nvars = 0) : bits_(0), nvars_(check_arity(nvars)) {}

  /// Builds a table from raw bits; bits beyond the table width are masked.
  Tt(int nvars, std::uint64_t bits)
      : bits_(bits & mask(check_arity(nvars))), nvars_(nvars) {}

  /// Projection onto variable `var` within an `nvars`-variable space.
  static Tt var(int nvars, int var) {
    T1MAP_REQUIRE(var >= 0 && var < nvars, "projection variable out of range");
    return Tt(nvars, detail::kProjection[var]);
  }

  /// Constant-one function.
  static Tt ones(int nvars) { return Tt(nvars, ~0ull); }

  /// Constant-zero function.
  static Tt zeros(int nvars) { return Tt(nvars); }

  int num_vars() const { return nvars_; }
  std::uint64_t bits() const { return bits_; }
  std::uint64_t num_bits() const { return 1ull << nvars_; }

  bool is_const0() const { return bits_ == 0; }
  bool is_const1() const { return bits_ == mask(nvars_); }

  /// Number of input assignments mapped to 1.
  int count_ones() const { return __builtin_popcountll(bits_); }

  /// Value of the function at input assignment `index`.
  bool bit(std::uint64_t index) const {
    T1MAP_ASSERT(index < num_bits());
    return (bits_ >> index) & 1u;
  }

  void set_bit(std::uint64_t index, bool value) {
    T1MAP_ASSERT(index < num_bits());
    if (value) {
      bits_ |= (1ull << index);
    } else {
      bits_ &= ~(1ull << index);
    }
  }

  /// True if the function's value depends on variable `var`.
  bool depends_on(int var) const;

  /// Bitmask of variables in the functional support.
  std::uint32_t support_mask() const;

  /// Negative cofactor f|_{var=0}, same arity (the freed variable becomes
  /// irrelevant).
  Tt cofactor0(int var) const;

  /// Positive cofactor f|_{var=1}.
  Tt cofactor1(int var) const;

  /// f with variable `var` complemented: g(..., x_var, ...) = f(..., !x_var, ...).
  Tt flip_var(int var) const;

  /// f with every variable in `polarity_mask` complemented.
  Tt apply_polarity(std::uint32_t polarity_mask) const;

  /// f with variables `a` and `b` exchanged.
  Tt swap_vars(int a, int b) const;

  /// f re-expressed over a larger variable space: old variable `i` becomes
  /// new variable `where[i]`.  `new_nvars` must accommodate every target.
  Tt remap(int new_nvars, std::span<const int> where) const;

  /// The order-preserving `remap`: old variable `i` becomes the `i`-th set
  /// bit of `positions` (one per old variable, all below `new_nvars`); the
  /// other new variables are don't-cares.  One is inserted at position j by
  /// spreading the table's 2^j-row blocks apart and doubling each block
  /// into the gap after it: a few word operations, not a pass over the
  /// rows.  Inline: cut
  /// enumeration runs it per fanin of every candidate cut, with the
  /// positions `merge_leaves` reports.
  Tt expand(int new_nvars, std::uint32_t positions) const {
    constexpr const char* kMisuse =
        "expand: needs one position below new_nvars per variable";
    T1MAP_REQUIRE(new_nvars >= 0 && new_nvars <= kMaxVars &&
                      (positions >> new_nvars) == 0,
                  kMisuse);
    std::uint64_t bits = bits_;
    int nvars = nvars_;
    for (int j = 0; j < new_nvars; ++j) {
      if ((positions >> j) & 1u) continue;
      T1MAP_REQUIRE(nvars < kMaxVars, kMisuse);
      for (int u = nvars - 1; u >= j; --u) {
        const std::uint64_t hi = bits & detail::kProjection[u];
        bits = (bits ^ hi) | (hi << (1u << u));
      }
      bits |= bits << (1u << j);
      ++nvars;
    }
    T1MAP_REQUIRE(nvars == new_nvars, kMisuse);
    return Tt(nvars, bits);
  }

  /// Binary string, most significant assignment first (e.g. "1000" for AND2).
  std::string to_string() const;

  Tt operator~() const { return Tt(nvars_, ~bits_); }
  Tt operator&(const Tt& o) const { return binary(o, bits_ & o.bits_); }
  Tt operator|(const Tt& o) const { return binary(o, bits_ | o.bits_); }
  Tt operator^(const Tt& o) const { return binary(o, bits_ ^ o.bits_); }

  bool operator==(const Tt& o) const {
    return nvars_ == o.nvars_ && bits_ == o.bits_;
  }
  bool operator!=(const Tt& o) const { return !(*this == o); }

  /// Total order usable as a map key.
  bool operator<(const Tt& o) const {
    return nvars_ != o.nvars_ ? nvars_ < o.nvars_ : bits_ < o.bits_;
  }

 private:
  static int check_arity(int nvars) {
    T1MAP_REQUIRE(nvars >= 0 && nvars <= kMaxVars,
                  "truth table arity out of range");
    return nvars;
  }

  static std::uint64_t mask(int nvars) {
    return nvars == 6 ? ~0ull : (1ull << (1u << nvars)) - 1;
  }

  Tt binary(const Tt& o, std::uint64_t bits) const {
    T1MAP_REQUIRE(nvars_ == o.nvars_,
                  "binary op requires equal truth-table arity");
    return Tt(nvars_, bits);
  }

  std::uint64_t bits_;
  int nvars_;
};

/// Evaluates `local` (a function of `fanins.size()` variables) on the given
/// fanin functions, producing a function over the fanins' shared variable
/// space.  All fanin tables must have equal arity.  This is how a cut's
/// function is computed from per-node local functions.
inline Tt compose(const Tt& local, std::span<const Tt> fanins) {
  T1MAP_REQUIRE(static_cast<std::size_t>(local.num_vars()) == fanins.size(),
                "compose: local arity must match fanin count");
  if (fanins.empty()) return local;  // zero-variable constant
  const int nvars = fanins[0].num_vars();
  for (const Tt& f : fanins) {
    T1MAP_REQUIRE(f.num_vars() == nvars, "compose: fanin arity mismatch");
  }
  // Word-parallel Shannon expansion: every minterm of `local` contributes
  // the AND of its fanin tables (complemented where the minterm has a 0),
  // all 2^nvars result rows at once.  Branch-free, so that the
  // enumerator's fixed fanin counts unroll it.
  std::uint64_t result = 0;
  for (std::uint64_t row = 0; row < local.num_bits(); ++row) {
    std::uint64_t term = 0 - ((local.bits() >> row) & 1u);
    for (std::size_t k = 0; k < fanins.size(); ++k) {
      const std::uint64_t f = fanins[k].bits();
      term &= ((row >> k) & 1u) != 0 ? f : ~f;
    }
    result |= term;
  }
  return Tt(nvars, result);
}

/// Common 2- and 3-input functions used by the SFQ cell library and the T1
/// matcher.
namespace tts {
Tt and2();
Tt or2();
Tt xor2();
Tt and3();
Tt or3();
Tt xor3();
Tt maj3();
}  // namespace tts

}  // namespace t1map
