/// \file aig_digest.hpp
/// \brief Digests of an AIG: per-node canonical cone digests, the serving
/// layer's structural cache key, and an id-level identity digest, the key
/// of the engine's map-pass memo.
///
/// `cone_digests` computes, for every node, a 64-bit hash of the node's
/// entire fan-in cone: constants and PIs are seeded leaves (a PI folds in
/// its PI *index*, not its node id), and an AND node combines its fanin
/// literal digests in hash-value order, so AND commutation and node
/// renumbering cannot leak into the digest.  Two nodes — in the same AIG or
/// across AIGs — whose fan-in cones are structurally isomorphic (same PI
/// indices, same polarities) receive the same digest.
///
/// These per-node values are exactly the intermediate array of the serving
/// layer's 128-bit whole-AIG digest (`serve::AigHasher` delegates here), so
/// the seed constants below are part of the persistent cache-key format and
/// must never change — as must `mix64` in common/hash_mix.hpp.
///
/// `identity_digest` is the opposite notion: a raw hash of the id-level
/// structure plus the PI and PO names.  Equal identity digests mean the two
/// AIGs are the same object node for node, which is what the mapped netlist
/// depends on (its node order, AIG origins and port names).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "common/hash_mix.hpp"

namespace t1map::aig_digest {

// Domain-separation seeds: arbitrary odd constants, fixed forever.
inline constexpr std::uint64_t kConstSeed = 0xA2B5C8D1E4F70913ull;
inline constexpr std::uint64_t kPiSeed = 0x9D8C7B6A59483726ull;
inline constexpr std::uint64_t kAndSeed = 0x1F2E3D4C5B6A7988ull;
inline constexpr std::uint64_t kNegSeed = 0x7157A1B2C3D4E5F6ull;
inline constexpr std::uint64_t kHiLane = 0x452821E638D01377ull;
inline constexpr std::uint64_t kLoLane = 0xBE5466CF34E90C6Cull;

inline std::uint64_t combine(std::uint64_t a, std::uint64_t b) {
  return mix64(a ^ mix64(b));
}

/// Digest of a literal: the driver's cone digest, remixed when complemented.
inline std::uint64_t lit_digest(Lit l,
                                std::span<const std::uint64_t> node_digest) {
  const std::uint64_t h = node_digest[lit_node(l)];
  return lit_is_complemented(l) ? combine(kNegSeed, h) : h;
}

/// Fills `out` (resized to `aig.num_nodes()`) with the cone digest of every
/// node.  One forward sweep: node ids are a topological order.
void cone_digests(const Aig& aig, std::vector<std::uint64_t>& out);

/// Raw id-level hash: the node stream (PI marks, AND fanin literals), the
/// PI names, and the PO literals and names.  Not a persisted format.
std::uint64_t identity_digest(const Aig& aig);

}  // namespace t1map::aig_digest
