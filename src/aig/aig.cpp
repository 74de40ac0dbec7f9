#include "aig/aig.hpp"

#include <algorithm>

#include "common/hash_mix.hpp"

namespace t1map {

Lit Aig::create_pi(std::string name) {
  const std::uint32_t node = num_nodes();
  nodes_.push_back(Node{kPiMark, kPiMark});
  pis_.push_back(node);
  if (name.empty()) name = "pi" + std::to_string(pis_.size() - 1);
  pi_names_.push_back(std::move(name));
  return make_lit(node);
}

Lit Aig::create_and(Lit a, Lit b) {
  T1MAP_REQUIRE(lit_node(a) < num_nodes() && lit_node(b) < num_nodes(),
                "create_and: fanin literal out of range");
  // Normalize operand order so strashing is symmetric.
  if (a > b) std::swap(a, b);
  // Constant and trivial cases.
  if (a == kConst0) return kConst0;
  if (a == kConst1) return b;
  if (a == b) return a;
  if (a == lit_not(b)) return kConst0;

  // Keep the table at most half full, counting the node this call may add.
  if (2 * (std::size_t{num_ands()} + 1) > strash_.size()) {
    rehash_strash(std::max<std::size_t>(16, 2 * strash_.size()));
  }
  std::uint32_t& slot = strash_[strash_slot(a, b)];
  if (slot != 0) return make_lit(slot);
  slot = num_nodes();
  nodes_.push_back(Node{a, b});
  return make_lit(slot);
}

std::size_t Aig::strash_slot(Lit a, Lit b) const {
  const std::size_t mask = strash_.size() - 1;
  std::size_t i = static_cast<std::size_t>(mix64(strash_key(a, b))) & mask;
  while (strash_[i] != 0) {
    const Node& n = nodes_[strash_[i]];
    if (n.fanin0 == a && n.fanin1 == b) break;
    i = (i + 1) & mask;
  }
  return i;
}

void Aig::rehash_strash(std::size_t capacity) {
  strash_.assign(capacity, 0);
  for (std::uint32_t n = 1; n < num_nodes(); ++n) {
    if (is_and(n)) strash_[strash_slot(nodes_[n].fanin0, nodes_[n].fanin1)] = n;
  }
}

Lit Aig::create_xor(Lit a, Lit b) {
  // XOR via three ANDs; strashing removes duplicates across calls.
  const Lit a_nb = create_and(a, lit_not(b));
  const Lit na_b = create_and(lit_not(a), b);
  return create_or(a_nb, na_b);
}

std::uint32_t Aig::create_po(Lit l, std::string name) {
  T1MAP_REQUIRE(lit_node(l) < num_nodes(), "create_po: literal out of range");
  pos_.push_back(l);
  if (name.empty()) name = "po" + std::to_string(pos_.size() - 1);
  po_names_.push_back(std::move(name));
  return static_cast<std::uint32_t>(pos_.size() - 1);
}

std::vector<int> Aig::levels() const {
  std::vector<int> level(num_nodes(), 0);
  for (std::uint32_t n = 0; n < num_nodes(); ++n) {
    if (is_and(n)) {
      level[n] = 1 + std::max(level[lit_node(nodes_[n].fanin0)],
                              level[lit_node(nodes_[n].fanin1)]);
    }
  }
  return level;
}

int Aig::depth() const {
  const auto level = levels();
  int d = 0;
  for (const Lit po : pos_) d = std::max(d, level[lit_node(po)]);
  return d;
}

std::vector<std::uint32_t> Aig::fanout_counts() const {
  std::vector<std::uint32_t> count(num_nodes(), 0);
  for (std::uint32_t n = 0; n < num_nodes(); ++n) {
    if (is_and(n)) {
      ++count[lit_node(nodes_[n].fanin0)];
      ++count[lit_node(nodes_[n].fanin1)];
    }
  }
  for (const Lit po : pos_) ++count[lit_node(po)];
  return count;
}

Aig Aig::cleaned(std::vector<Lit>* old_to_new) const {
  std::vector<Lit> map(num_nodes(), kUnmapped);
  map[0] = kConst0;

  Aig result;
  for (std::uint32_t i = 0; i < num_pis(); ++i) {
    map[pis_[i]] = result.create_pi(pi_names_[i]);
  }

  // Mark reachable AND nodes from POs.
  std::vector<bool> reach(num_nodes(), false);
  std::vector<std::uint32_t> stack;
  for (const Lit po : pos_) {
    if (is_and(lit_node(po)) && !reach[lit_node(po)]) {
      reach[lit_node(po)] = true;
      stack.push_back(lit_node(po));
    }
  }
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    for (const Lit f : {nodes_[n].fanin0, nodes_[n].fanin1}) {
      const std::uint32_t m = lit_node(f);
      if (is_and(m) && !reach[m]) {
        reach[m] = true;
        stack.push_back(m);
      }
    }
  }

  // Rebuild in id order (a valid topological order).
  for (std::uint32_t n = 0; n < num_nodes(); ++n) {
    if (!is_and(n) || !reach[n]) continue;
    const Lit f0 = nodes_[n].fanin0;
    const Lit f1 = nodes_[n].fanin1;
    const Lit a = lit_notif(map[lit_node(f0)], lit_is_complemented(f0));
    const Lit b = lit_notif(map[lit_node(f1)], lit_is_complemented(f1));
    map[n] = result.create_and(a, b);
  }

  for (std::uint32_t i = 0; i < num_pos(); ++i) {
    const Lit po = pos_[i];
    T1MAP_ASSERT(map[lit_node(po)] != kUnmapped);
    result.create_po(lit_notif(map[lit_node(po)], lit_is_complemented(po)),
                     po_names_[i]);
  }

  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return result;
}

}  // namespace t1map
