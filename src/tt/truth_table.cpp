#include "tt/truth_table.hpp"

#include <algorithm>

namespace t1map {

bool Tt::depends_on(int v) const { return cofactor0(v) != cofactor1(v); }

std::uint32_t Tt::support_mask() const {
  std::uint32_t mask = 0;
  for (int v = 0; v < nvars_; ++v) {
    if (depends_on(v)) mask |= (1u << v);
  }
  return mask;
}

Tt Tt::cofactor0(int v) const {
  T1MAP_REQUIRE(v >= 0 && v < nvars_, "cofactor variable out of range");
  const std::uint64_t lo = bits_ & ~detail::kProjection[v];
  return Tt(nvars_, lo | (lo << (1u << v)));
}

Tt Tt::cofactor1(int v) const {
  T1MAP_REQUIRE(v >= 0 && v < nvars_, "cofactor variable out of range");
  const std::uint64_t hi = bits_ & detail::kProjection[v];
  return Tt(nvars_, hi | (hi >> (1u << v)));
}

Tt Tt::flip_var(int v) const {
  T1MAP_REQUIRE(v >= 0 && v < nvars_, "flip variable out of range");
  const unsigned shift = 1u << v;
  const std::uint64_t hi = bits_ & detail::kProjection[v];
  const std::uint64_t lo = bits_ & ~detail::kProjection[v];
  return Tt(nvars_, (hi >> shift) | (lo << shift));
}

Tt Tt::apply_polarity(std::uint32_t polarity_mask) const {
  Tt result = *this;
  for (int v = 0; v < nvars_; ++v) {
    if (polarity_mask & (1u << v)) result = result.flip_var(v);
  }
  return result;
}

Tt Tt::swap_vars(int a, int b) const {
  T1MAP_REQUIRE(a >= 0 && a < nvars_ && b >= 0 && b < nvars_,
                "swap variable out of range");
  if (a == b) return *this;
  Tt result(nvars_);
  for (std::uint64_t i = 0; i < num_bits(); ++i) {
    std::uint64_t j = i;
    const bool bit_a = (i >> a) & 1u;
    const bool bit_b = (i >> b) & 1u;
    j &= ~((1ull << a) | (1ull << b));
    if (bit_a) j |= (1ull << b);
    if (bit_b) j |= (1ull << a);
    if (bit(i)) result.set_bit(j, true);
  }
  return result;
}

Tt Tt::remap(int new_nvars, std::span<const int> where) const {
  T1MAP_REQUIRE(static_cast<int>(where.size()) == nvars_,
                "remap needs one target per variable");
  Tt result(new_nvars);
  for (std::uint64_t i = 0; i < result.num_bits(); ++i) {
    std::uint64_t src = 0;
    for (int v = 0; v < nvars_; ++v) {
      T1MAP_REQUIRE(where[v] >= 0 && where[v] < new_nvars,
                    "remap target out of range");
      if ((i >> where[v]) & 1u) src |= (1ull << v);
    }
    if (bit(src)) result.set_bit(i, true);
  }
  return result;
}

std::string Tt::to_string() const {
  std::string s;
  s.reserve(num_bits());
  for (std::uint64_t i = num_bits(); i-- > 0;) {
    s.push_back(bit(i) ? '1' : '0');
  }
  return s;
}

namespace tts {

Tt and2() { return Tt(2, 0b1000); }
Tt or2() { return Tt(2, 0b1110); }
Tt xor2() { return Tt(2, 0b0110); }
Tt and3() { return Tt(3, 0x80); }
Tt or3() { return Tt(3, 0xFE); }
Tt xor3() { return Tt(3, 0x96); }
Tt maj3() { return Tt(3, 0xE8); }

}  // namespace tts
}  // namespace t1map
