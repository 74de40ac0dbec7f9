#include "aig/aig_digest.hpp"

#include <algorithm>
#include <string>

namespace t1map::aig_digest {

void cone_digests(const Aig& aig, std::vector<std::uint64_t>& out) {
  out.assign(aig.num_nodes(), 0);
  out[0] = mix64(kConstSeed);

  // PI digests fold in the PI *index* (not the node id), so the digest sees
  // the input interface, not the numbering.
  const auto pis = aig.pis();
  for (std::size_t i = 0; i < pis.size(); ++i) {
    out[pis[i]] = combine(kPiSeed, static_cast<std::uint64_t>(i));
  }

  for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
    if (!aig.is_and(n)) continue;
    std::uint64_t a = lit_digest(aig.fanin0(n), out);
    std::uint64_t b = lit_digest(aig.fanin1(n), out);
    // AND is commutative: order operands by hash value so operand order at
    // construction time cannot leak into the digest.
    if (a > b) std::swap(a, b);
    out[n] = combine(kAndSeed, combine(a, b));
  }
}

std::uint64_t identity_digest(const Aig& aig) {
  std::uint64_t h = 0x5851F42D4C957F2Dull;  // domain seed
  const auto absorb = [&h](std::uint64_t x) { h = mix64(h ^ x); };
  const auto absorb_name = [&absorb](const std::string& name) {
    std::uint64_t fnv = 0xCBF29CE484222325ull;  // FNV-1a
    for (const char c : name) {
      fnv = (fnv ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
    }
    absorb(name.size());
    absorb(fnv);
  };
  absorb(aig.num_nodes());
  for (std::uint32_t n = 1; n < aig.num_nodes(); ++n) {
    if (aig.is_pi(n)) {
      absorb(~std::uint64_t{0});
    } else {
      absorb((std::uint64_t{aig.fanin0(n)} << 32) | aig.fanin1(n));
    }
  }
  absorb(aig.num_pis());
  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    absorb_name(aig.pi_name(i));
  }
  absorb(aig.num_pos());
  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    absorb(aig.po(i));
    absorb_name(aig.po_name(i));
  }
  return h;
}

}  // namespace t1map::aig_digest
