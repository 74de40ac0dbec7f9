/// \file cone_splice.hpp
/// \brief Cone correspondence between two netlists + cut-set splicing — the
/// machinery that turns per-node structural digests into safely reusable
/// per-node pass artifacts.
///
/// Given per-node cone digests and fanout counts of an *old* (memoized) and
/// a *new* network, `build_cone_correspondence` produces a partial node map
/// new→old under which per-node artifacts of the old run (cut sets, DP
/// choices) equal what a cold run on the new network would compute.  A new
/// node is *clean* (mapped) only when all of the following hold:
///
///   * its cone digest matches exactly one old node's (duplicate digests on
///     the old side are conservatively unmatchable);
///   * its fanout count equals the old node's — area-flow divides by
///     fanout, so a consumer-count change invalidates the DP value;
///   * every fanin is itself clean (transitively: the entire fan-in cone is
///     matched, so every leaf id appearing in a spliced artifact has a
///     translation);
///   * the map is globally *monotone*: scanning new ids ascending, matched
///     old ids strictly increase.  Monotone translations preserve the
///     relative order of node ids, and every id-dependent decision in cut
///     enumeration and the covering DP — sorted leaf merges, (size, lex)
///     cut ordering, `max_cuts` truncation, dominance scans — depends on
///     leaf-id *order* only (64-bit signatures are conservative prechecks
///     always backed by exact list compares), so order preservation makes
///     spliced results bit-identical to cold recomputation.
///
/// Everything else is *dirty* and must be recomputed; after a single-gate
/// edit the dirty set is the edit's transitive fanout plus any node whose
/// fanout count changed.

#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "cut/cut_enum.hpp"

namespace t1map {

inline constexpr std::uint32_t kNoCorrespondent = 0xFFFFFFFFu;

/// A partial monotone node map between a new network and a memoized old one.
struct ConeCorrespondence {
  std::vector<std::uint32_t> new_to_old;  // kNoCorrespondent = dirty
  std::vector<std::uint32_t> old_to_new;  // inverse over matched nodes
  std::uint32_t num_clean = 0;

  bool clean(std::uint32_t new_node) const {
    return new_to_old[new_node] != kNoCorrespondent;
  }
};

/// Builds the correspondence (see file comment for the clean predicate).
/// `Ntk` supplies the cut-view interface (`cut_is_leaf`, `cut_fanins`) of
/// the *new* network; the old network is described by its digests/fanouts
/// alone.
template <class Ntk>
void build_cone_correspondence(const Ntk& ntk,
                               std::span<const std::uint64_t> new_digests,
                               std::span<const std::uint32_t> new_fanouts,
                               std::span<const std::uint64_t> old_digests,
                               std::span<const std::uint32_t> old_fanouts,
                               ConeCorrespondence& corr) {
  const std::size_t n_new = new_digests.size();
  const std::size_t n_old = old_digests.size();
  corr.new_to_old.assign(n_new, kNoCorrespondent);
  corr.old_to_new.assign(n_old, kNoCorrespondent);
  corr.num_clean = 0;

  // Digest -> old id; a duplicate digest poisons its slot (first-occurrence
  // splicing would be unsound when the *new* side resolves the ambiguity
  // differently than the old run did).
  constexpr std::uint32_t kAmbiguous = 0xFFFFFFFEu;
  std::unordered_map<std::uint64_t, std::uint32_t> by_digest;
  by_digest.reserve(n_old * 2);
  for (std::uint32_t o = 0; o < n_old; ++o) {
    const auto [it, inserted] = by_digest.emplace(old_digests[o], o);
    if (!inserted) it->second = kAmbiguous;
  }

  std::int64_t last_old = -1;
  for (std::uint32_t n = 0; n < n_new; ++n) {
    const auto it = by_digest.find(new_digests[n]);
    if (it == by_digest.end() || it->second == kAmbiguous) continue;
    const std::uint32_t o = it->second;
    if (static_cast<std::int64_t>(o) <= last_old) continue;  // monotone
    if (old_fanouts[o] != new_fanouts[n]) continue;
    if (!ntk.cut_is_leaf(n)) {
      std::uint32_t fanin[3];
      int nf = 0;
      ntk.cut_fanins(n, fanin, nf);
      bool fanins_clean = true;
      for (int i = 0; i < nf; ++i) {
        fanins_clean &= corr.new_to_old[fanin[i]] != kNoCorrespondent;
      }
      if (!fanins_clean) continue;
    }
    corr.new_to_old[n] = o;
    corr.old_to_new[o] = n;
    last_old = o;
    ++corr.num_clean;
  }
}

/// Translates one memoized cut set (old leaf ids) into new ids, recomputing
/// the 64-bit signatures — they are id-mod-64 dependent, and a stale
/// signature would silently break the conservative prechecks of any later
/// enumeration over the spliced set.  Truth tables carry over unchanged:
/// monotone translation preserves the sorted leaf order the variables are
/// bound to.  Appends to `out`.
inline void translate_cuts(std::span<const Cut> cuts,
                           std::span<const std::uint32_t> old_to_new,
                           std::vector<Cut>& out) {
  for (const Cut& cut : cuts) {
    Cut t;
    t.sig = 0;
    for (const std::uint32_t leaf : cut.leaves) {
      const std::uint32_t mapped = old_to_new[leaf];
      T1MAP_ASSERT(mapped != kNoCorrespondent);
      t.leaves.push_back(mapped);
      t.sig |= leaf_sig(mapped);
    }
    t.tt = cut.tt;
    out.push_back(std::move(t));
  }
}

/// Rebuilds `ws.cuts` for `ntk`, splicing the memoized per-node cut sets of
/// every clean node (translated through `corr`) and running the normal
/// per-node enumeration for dirty ones.  The result is bit-identical to
/// `enumerate_cuts_into(ntk, params, ws)`.
template <class Ntk>
void enumerate_cuts_spliced(const Ntk& ntk, const CutParams& params,
                            CutWorkspace& ws, const CutSet& old_cuts,
                            const ConeCorrespondence& corr) {
  T1MAP_REQUIRE(params.k >= 1 && params.k <= kMaxCutLeaves,
                "cut size must be between 1 and 4");
  const std::size_t n = ntk.size();
  CutSet& cuts = ws.cuts;
  cuts.reset(n);
  detail::CutScratch& scratch = ws.scratch;
  scratch.fresh.reserve(
      static_cast<std::size_t>(params.max_cuts) * params.max_cuts + 1);
  scratch.kept.reserve(params.max_cuts + 1);
  std::vector<Cut> translated;

  detail::dispatch_cut_size(params.k, [&](auto k) {
    for (std::uint32_t node = 0; node < n; ++node) {
      const std::uint32_t old_node = corr.new_to_old[node];
      if (old_node != kNoCorrespondent) {
        translated.clear();
        translate_cuts(old_cuts[old_node], corr.old_to_new, translated);
        cuts.set_node_cuts(node, translated);
      } else {
        detail::enumerate_node_cuts<k()>(ntk, params.max_cuts, cuts, node,
                                         scratch);
        cuts.set_node_cuts(node, scratch.kept);
      }
    }
  });
}

}  // namespace t1map
