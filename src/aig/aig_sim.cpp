#include "aig/aig_sim.hpp"

#include <algorithm>

namespace t1map {

template <int W>
void simulate_words(const Aig& aig, std::span<const std::uint64_t> pi_words,
                    std::span<std::uint64_t> value) {
  T1MAP_REQUIRE(pi_words.size() == std::size_t{aig.num_pis()} * W,
                "simulate: need W words per PI");
  T1MAP_REQUIRE(value.size() == std::size_t{aig.num_nodes()} * W,
                "simulate: need W words per node");
  std::uint64_t* v = value.data();
  std::fill_n(v, W, 0);  // the constant node
  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    std::copy_n(pi_words.data() + std::size_t{i} * W, W,
                v + std::size_t{aig.pis()[i]} * W);
  }
  for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
    if (!aig.is_and(n)) continue;
    const Lit f0 = aig.fanin0(n);
    const Lit f1 = aig.fanin1(n);
    const std::uint64_t* a = v + std::size_t{lit_node(f0)} * W;
    const std::uint64_t* b = v + std::size_t{lit_node(f1)} * W;
    const std::uint64_t na = lit_is_complemented(f0) ? ~0ull : 0;
    const std::uint64_t nb = lit_is_complemented(f1) ? ~0ull : 0;
    std::uint64_t out[W];
    for (int w = 0; w < W; ++w) out[w] = (a[w] ^ na) & (b[w] ^ nb);
    std::copy_n(out, W, v + std::size_t{n} * W);
  }
}

template void simulate_words<1>(const Aig&, std::span<const std::uint64_t>,
                                std::span<std::uint64_t>);
template void simulate_words<kSimBlock>(const Aig&,
                                        std::span<const std::uint64_t>,
                                        std::span<std::uint64_t>);

std::vector<std::uint64_t> simulate_nodes(
    const Aig& aig, std::span<const std::uint64_t> pi_words) {
  std::vector<std::uint64_t> value(aig.num_nodes());
  simulate_words<1>(aig, pi_words, value);
  return value;
}

std::vector<std::uint64_t> simulate(const Aig& aig,
                                    std::span<const std::uint64_t> pi_words) {
  const auto value = simulate_nodes(aig, pi_words);
  std::vector<std::uint64_t> out;
  out.reserve(aig.num_pos());
  for (const Lit po : aig.pos()) {
    const std::uint64_t v = value[lit_node(po)];
    out.push_back(lit_is_complemented(po) ? ~v : v);
  }
  return out;
}

std::vector<Tt> exhaustive_po_tts(const Aig& aig) {
  const int n = static_cast<int>(aig.num_pis());
  T1MAP_REQUIRE(n <= Tt::kMaxVars, "exhaustive simulation limited to 6 PIs");
  std::vector<std::uint64_t> words(aig.num_pis());
  for (int i = 0; i < n; ++i) words[i] = Tt::var(n, i).bits();
  const auto po_words = simulate(aig, words);
  std::vector<Tt> tts;
  tts.reserve(po_words.size());
  for (const std::uint64_t w : po_words) tts.emplace_back(n, w);
  return tts;
}

RandomSimResult random_simulate(const Aig& aig, int rounds,
                                std::uint64_t seed) {
  Rng rng(seed);
  RandomSimResult result;
  result.pi_words.reserve(rounds);
  result.po_words.reserve(rounds);
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::uint64_t> pi_words(aig.num_pis());
    for (auto& w : pi_words) w = rng.next();
    result.po_words.push_back(simulate(aig, pi_words));
    result.pi_words.push_back(std::move(pi_words));
  }
  return result;
}

}  // namespace t1map
