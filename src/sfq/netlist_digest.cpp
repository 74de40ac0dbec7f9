#include "sfq/netlist_digest.hpp"

#include "common/hash_mix.hpp"

namespace t1map::sfq {

std::uint64_t netlist_identity_digest(const Netlist& ntk) {
  std::uint64_t h = 0x3C6EF372FE94F82Bull;  // domain seed
  const auto absorb = [&h](std::uint64_t x) { h = mix64(h ^ x); };
  absorb(ntk.num_nodes());
  for (std::uint32_t id = 0; id < ntk.num_nodes(); ++id) {
    const Netlist::Node& node = ntk.node(id);
    absorb(static_cast<std::uint64_t>(node.kind));
    absorb(node.nfanin);
    for (const std::uint32_t f : ntk.fanins(id)) absorb(f);
  }
  absorb(ntk.num_pis());
  absorb(ntk.num_pos());
  for (const Netlist::Po& po : ntk.pos()) absorb(po.driver);
  return h;
}

}  // namespace t1map::sfq
