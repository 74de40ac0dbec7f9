#include "cut/cut_enum.hpp"

namespace t1map {

bool leaves_subset(std::span<const std::uint32_t> a,
                   std::span<const std::uint32_t> b) {
  if (a.size() > b.size()) return false;
  std::size_t j = 0;
  for (const std::uint32_t x : a) {
    while (j < b.size() && b[j] < x) ++j;
    if (j == b.size() || b[j] != x) return false;
    ++j;
  }
  return true;
}

namespace detail {

void prune_dominated(CutScratch& scratch, int max_cuts) {
  auto& fresh = scratch.fresh;
  auto& kept = scratch.kept;  // kept[0] is the trivial cut, never dominated

  std::sort(fresh.begin(), fresh.end(), [](const Cut& x, const Cut& y) {
    return x.leaves.lex_less(y.leaves);
  });
  for (const Cut& cut : fresh) {
    if (static_cast<int>(kept.size()) - 1 >= max_cuts) break;
    bool dominated = false;
    for (std::size_t i = 1; i < kept.size(); ++i) {
      const Cut& prev = kept[i];
      // prev precedes cut in (size, lex) order, so prev can only dominate
      // (or duplicate) cut.  A leaf of prev missing from cut's signature
      // proves prev ⊄ cut without touching the leaf arrays.
      if ((prev.sig & ~cut.sig) != 0) continue;
      if (leaves_subset(prev.leaves, cut.leaves)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(cut);
  }
}

}  // namespace detail

}  // namespace t1map
