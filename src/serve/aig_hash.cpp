#include "serve/aig_hash.hpp"

#include <cstdio>

#include "aig/aig_digest.hpp"
#include "common/hash_mix.hpp"

namespace t1map::serve {

std::string Digest::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf, 32);
}

Digest AigHasher::hash(const Aig& aig) {
  // The per-node array is aig_digest's cone-digest vector, whose seeds are
  // part of the persisted cache-key format (aig/aig_digest.hpp).
  aig_digest::cone_digests(aig, node_hash_);

  // Two independent absorption lanes make the final digest genuinely
  // 128-bit; the PO sequence (order and polarity) is the circuit's output
  // interface and is absorbed literally.
  Digest d{aig_digest::kHiLane, aig_digest::kLoLane};
  const auto absorb = [&d](std::uint64_t x) {
    d.hi = mix64(d.hi ^ x);
    d.lo = mix64(d.lo + (x | 1) * 0xFF51AFD7ED558CCDull);
  };
  absorb(aig.num_pis());
  absorb(aig.num_pos());
  for (const Lit po : aig.pos()) {
    absorb(aig_digest::lit_digest(po, node_hash_));
  }
  return d;
}

Digest hash_aig(const Aig& aig) {
  // One hasher per thread: batched serve dispatch hashes every request on
  // the session thread, and reallocating the node array per call showed up
  // in exactly that loop.
  thread_local AigHasher hasher;
  return hasher.hash(aig);
}

}  // namespace t1map::serve
