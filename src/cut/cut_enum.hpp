/// \file cut_enum.hpp
/// \brief k-feasible cut enumeration with per-cut truth tables.
///
/// Implements the classic bottom-up cut enumeration of Cong et al. (paper
/// ref. [8]): the cut set of a node is the cross-merge of its fanins' cut
/// sets, keeping cuts with at most `k` leaves, plus the trivial cut {node}.
/// Each cut carries its function as a truth table over the (sorted) leaves,
/// which is what both the SFQ technology mapper and the T1 detector match
/// against.
///
/// Memory layout is flat for speed: leaves live in a fixed-capacity inline
/// array (k <= 4 is enforced), every cut carries a 64-bit leaf signature so
/// dominance and dedup checks reject most pairs in one AND, and all retained
/// cuts of an enumeration are pooled in a single arena (`CutSet`) instead of
/// one heap vector per node.
///
/// The enumerator is generic over a *network view* providing:
///   - `size()`                       — number of nodes, ids topological;
///   - `cut_is_leaf(id)`              — nodes at which cuts stop (PIs,
///                                      constants, unsupported nodes);
///   - `cut_fanins(id, out, n)`       — up to 3 fanin node ids;
///   - `cut_local_tt(id)`             — node function over those fanins.
/// `Aig` and `sfq::Netlist` both satisfy this interface.

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <type_traits>
#include <vector>

#include "common/require.hpp"
#include "tt/truth_table.hpp"

namespace t1map {

/// Hard cap on leaves per cut; `CutParams::k` may not exceed it.
inline constexpr int kMaxCutLeaves = 4;

/// Sorted leaf ids of one cut, stored inline (no heap allocation).
class CutLeaves {
 public:
  using value_type = std::uint32_t;
  using const_iterator = const std::uint32_t*;

  CutLeaves() = default;
  CutLeaves(std::initializer_list<std::uint32_t> init) {
    T1MAP_ASSERT(init.size() <= static_cast<std::size_t>(kMaxCutLeaves));
    for (const std::uint32_t v : init) push_back(v);
  }

  const_iterator begin() const { return v_.data(); }
  const_iterator end() const { return v_.data() + n_; }
  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  std::uint32_t operator[](std::size_t i) const {
    T1MAP_ASSERT(i < n_);
    return v_[i];
  }
  std::uint32_t front() const { return (*this)[0]; }
  std::uint32_t back() const { return (*this)[n_ - 1]; }

  void clear() { n_ = 0; }
  void push_back(std::uint32_t x) {
    T1MAP_ASSERT(n_ < kMaxCutLeaves);
    v_[n_++] = x;
  }

  operator std::span<const std::uint32_t>() const { return {v_.data(), n_}; }

  bool operator==(const CutLeaves& o) const {
    if (n_ != o.n_) return false;
    for (std::uint8_t i = 0; i < n_; ++i) {
      if (v_[i] != o.v_[i]) return false;
    }
    return true;
  }
  /// Comparison against any contiguous id sequence (vectors in tests).
  friend bool operator==(const CutLeaves& a,
                         std::span<const std::uint32_t> b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
  /// Lexicographic, sizes first — the canonical cut-set order.
  bool lex_less(const CutLeaves& o) const {
    if (n_ != o.n_) return n_ < o.n_;
    for (std::uint8_t i = 0; i < n_; ++i) {
      if (v_[i] != o.v_[i]) return v_[i] < o.v_[i];
    }
    return false;
  }

 private:
  std::array<std::uint32_t, kMaxCutLeaves> v_{};
  std::uint8_t n_ = 0;
};

/// One cut: sorted leaf ids, a 64-bit leaf signature (bit `id mod 64` per
/// leaf) and the root's function over the leaves.
struct Cut {
  CutLeaves leaves;
  std::uint64_t sig = 0;
  Tt tt;

  bool is_trivial(std::uint32_t root) const {
    return leaves.size() == 1 && leaves[0] == root;
  }
};

/// Signature of a single leaf id.
inline std::uint64_t leaf_sig(std::uint32_t id) {
  return 1ull << (id & 63u);
}

/// True if `sig` has more than `k` bits set, which proves the leaf union
/// too large (ids sharing `id mod 64` can only make the count smaller).
/// Cheaper than a popcount on targets without a popcount instruction.
inline bool sig_exceeds(std::uint64_t sig, int k) {
  for (int i = 0; i < k; ++i) sig &= sig - 1;
  return sig != 0;
}

/// Tuning knobs for enumeration.
struct CutParams {
  /// Maximum number of leaves per cut.
  int k = 3;
  /// Maximum cuts retained per node (smallest-leaf-count first).  The
  /// trivial cut does not count against this limit.
  int max_cuts = 16;
};

/// Merges two sorted leaf lists into `out`; returns false if the union
/// exceeds `k`.  Bit j of `in_a` (`in_b`) is set when out[j] is a leaf of
/// `a` (`b`): the positions `Tt::expand` takes to re-express each side's
/// function over `out`.  Inline: it runs once per candidate pair.
inline bool merge_leaves(std::span<const std::uint32_t> a,
                         std::span<const std::uint32_t> b, int k,
                         CutLeaves& out, std::uint32_t& in_a,
                         std::uint32_t& in_b) {
  out.clear();
  in_a = 0;
  in_b = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  int count = 0;
  while (i < a.size() || j < b.size()) {
    if (count == k) return false;
    const bool take_a = j == b.size() || (i < a.size() && a[i] <= b[j]);
    const bool take_b = i == a.size() || (j < b.size() && b[j] <= a[i]);
    if (take_a) in_a |= 1u << count;
    if (take_b) in_b |= 1u << count;
    out.push_back(take_a ? a[i++] : b[j]);
    if (take_b) ++j;
    ++count;
  }
  return true;
}

/// True if `a`'s leaves are a subset of `b`'s (then `a` dominates `b`).
bool leaves_subset(std::span<const std::uint32_t> a,
                   std::span<const std::uint32_t> b);

/// All cuts of every node, pooled in one arena.  Indexed by node id; the
/// trivial cut is always the first entry of each non-empty set.
class CutSet {
 public:
  std::span<const Cut> operator[](std::size_t node) const {
    const Range& r = ranges_[node];
    return {pool_.data() + r.offset, r.count};
  }
  std::size_t size() const { return ranges_.size(); }
  /// Total cuts stored, all nodes included.
  std::size_t total_cuts() const { return pool_.size(); }

  // --- Builder interface (used by enumerate_cuts) --------------------------

  void reset(std::size_t num_nodes) {
    pool_.clear();
    pool_.reserve(num_nodes * 4);
    ranges_.assign(num_nodes, Range{});
  }
  /// Appends `cuts` as the cut set of `node`.  Nodes must be added at most
  /// once; un-added nodes read back as empty sets.
  void set_node_cuts(std::uint32_t node, std::span<const Cut> cuts) {
    ranges_[node] =
        Range{static_cast<std::uint32_t>(pool_.size()),
              static_cast<std::uint32_t>(cuts.size())};
    pool_.insert(pool_.end(), cuts.begin(), cuts.end());
  }

 private:
  struct Range {
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
  };
  std::vector<Cut> pool_;
  std::vector<Range> ranges_;
};

namespace detail {

/// Scratch state reused across nodes of one enumeration.
struct CutScratch {
  std::vector<Cut> fresh;
  std::vector<Cut> kept;
};

/// Dominance filter: `scratch.fresh` (sorted by size then lex leaves) is
/// reduced into `scratch.kept`, dropping duplicates and dominated cuts.
/// The signature test rejects most pairs before any element compare.
void prune_dominated(CutScratch& scratch, int max_cuts);

/// Computes the cut set of one node into `scratch.kept`, reading only the
/// fanins' (already committed) sets from `cuts`.  The cut size `K` is a
/// template parameter so that the per-pair size tests, which reject most
/// pairs, run with a constant bound.  Kept out of line: inlined into the
/// node loop of `enumerate_cuts_into`, the mapper's `cordic32` run measured
/// about 5% slower (Release + LTO, GCC 12).
template <int K, class Ntk>
[[gnu::noinline]] void enumerate_node_cuts(const Ntk& ntk, int max_cuts,
                                           const CutSet& cuts,
                                           std::uint32_t node,
                                           CutScratch& scratch) {
  // Trivial cut first: the node itself as a single leaf.
  scratch.kept.clear();
  scratch.kept.push_back(Cut{{node}, leaf_sig(node), Tt::var(1, 0)});
  if (ntk.cut_is_leaf(node)) return;

  std::uint32_t fanin[3];
  int nf = 0;
  ntk.cut_fanins(node, fanin, nf);
  T1MAP_ASSERT(nf >= 1 && nf <= 3);
  const Tt local = ntk.cut_local_tt(node);
  T1MAP_ASSERT(local.num_vars() == nf);

  CutLeaves merged;
  CutLeaves all;
  std::uint32_t in_a = 0;
  std::uint32_t in_b = 0;
  std::uint32_t in_ab = 0;
  std::uint32_t in_c = 0;
  scratch.fresh.clear();
  // Arity-specialized cross-merge of the fanins' cut sets.  Each fanin's
  // function is re-expressed over the merged leaves at the positions the
  // merge reports.
  const std::span<const Cut> c0 = cuts[fanin[0]];
  switch (nf) {
    case 1: {
      // Single fanin: every cut carries over with the local function
      // (BUF/NOT) applied on top; the leaf set is unchanged.
      for (const Cut& a : c0) {
        const Tt fanin_tts[1] = {a.tt};
        scratch.fresh.push_back(
            Cut{a.leaves, a.sig, compose(local, fanin_tts)});
      }
      break;
    }
    case 2: {
      const std::span<const Cut> c1 = cuts[fanin[1]];
      for (const Cut& a : c0) {
        for (const Cut& b : c1) {
          const std::uint64_t sig = a.sig | b.sig;
          if (sig_exceeds(sig, K)) continue;
          if (!merge_leaves(a.leaves, b.leaves, K, merged, in_a, in_b)) {
            continue;
          }
          const int n = static_cast<int>(merged.size());
          const Tt fanin_tts[2] = {a.tt.expand(n, in_a), b.tt.expand(n, in_b)};
          scratch.fresh.push_back(Cut{merged, sig, compose(local, fanin_tts)});
        }
      }
      break;
    }
    default: {
      T1MAP_ASSERT(nf == 3);
      const std::span<const Cut> c1 = cuts[fanin[1]];
      const std::span<const Cut> c2 = cuts[fanin[2]];
      for (const Cut& a : c0) {
        for (const Cut& b : c1) {
          const std::uint64_t sig_ab = a.sig | b.sig;
          if (sig_exceeds(sig_ab, K)) continue;
          if (!merge_leaves(a.leaves, b.leaves, K, merged, in_a, in_b)) {
            continue;
          }
          const int nab = static_cast<int>(merged.size());
          const Tt tt_a = a.tt.expand(nab, in_a);
          const Tt tt_b = b.tt.expand(nab, in_b);
          for (const Cut& c : c2) {
            const std::uint64_t sig = sig_ab | c.sig;
            if (sig_exceeds(sig, K)) continue;
            if (!merge_leaves(merged, c.leaves, K, all, in_ab, in_c)) {
              continue;
            }
            const int n = static_cast<int>(all.size());
            const Tt fanin_tts[3] = {tt_a.expand(n, in_ab),
                                     tt_b.expand(n, in_ab),
                                     c.tt.expand(n, in_c)};
            scratch.fresh.push_back(Cut{all, sig, compose(local, fanin_tts)});
          }
        }
      }
      break;
    }
  }

  prune_dominated(scratch, max_cuts);
}

}  // namespace detail

/// Reusable enumeration state: the result arena plus the per-node scratch
/// buffers.  `enumerate_cuts_into` resets the contents but keeps the heap
/// allocations, so a workspace reused across many enumerations (the
/// FlowEngine runs one per mapping and one per T1 detection, thousands of
/// times in batched serving) stops paying the arena growth after the first
/// run.
struct CutWorkspace {
  CutSet cuts;
  detail::CutScratch scratch;
};

/// As `enumerate_cuts`, but (re)builds into `ws.cuts`, reusing the arena and
/// scratch capacity of previous enumerations.  The result is identical to a
/// fresh `enumerate_cuts` call.
template <class Ntk>
void enumerate_cuts_into(const Ntk& ntk, const CutParams& params,
                         CutWorkspace& ws) {
  T1MAP_REQUIRE(params.k >= 1 && params.k <= kMaxCutLeaves,
                "cut size must be between 1 and 4");
  const std::size_t n = ntk.size();
  CutSet& cuts = ws.cuts;
  cuts.reset(n);

  detail::CutScratch& scratch = ws.scratch;
  scratch.fresh.reserve(
      static_cast<std::size_t>(params.max_cuts) * params.max_cuts + 1);
  scratch.kept.reserve(params.max_cuts + 1);

  // The one run-time branch on the cut size per enumeration.
  const auto enumerate_all = [&](auto k) {
    for (std::uint32_t node = 0; node < n; ++node) {
      detail::enumerate_node_cuts<k()>(ntk, params.max_cuts, cuts, node,
                                       scratch);
      cuts.set_node_cuts(node, scratch.kept);
    }
  };
  static_assert(kMaxCutLeaves == 4, "one case per cut size");
  switch (params.k) {
    case 1:
      return enumerate_all(std::integral_constant<int, 1>{});
    case 2:
      return enumerate_all(std::integral_constant<int, 2>{});
    case 3:
      return enumerate_all(std::integral_constant<int, 3>{});
    default:
      return enumerate_all(std::integral_constant<int, 4>{});
  }
}

/// All cuts of every node.  Result is indexed by node id; the trivial cut is
/// always the first entry of each non-empty set.
template <class Ntk>
CutSet enumerate_cuts(const Ntk& ntk, const CutParams& params = {}) {
  CutWorkspace ws;
  enumerate_cuts_into(ntk, params, ws);
  return std::move(ws.cuts);
}

}  // namespace t1map
