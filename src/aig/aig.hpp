/// \file aig.hpp
/// \brief And-inverter graph: the structural logic representation consumed by
/// the SFQ technology mapper.
///
/// The AIG plays the role of mockturtle's `aig_network` in the paper's flow:
/// benchmark generators produce AIGs, the technology mapper covers them with
/// SFQ cells, and equivalence checks compare every transformed netlist back
/// to the source AIG.
///
/// Representation: node 0 is constant-false; primary inputs and AND nodes
/// follow in creation order, so node ids are a topological order.  Edges are
/// *literals* (`2 * node + complement`), and structural hashing guarantees at
/// most one AND node per (fanin0, fanin1) pair.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "tt/truth_table.hpp"

namespace t1map {

/// An AIG edge: node id in the upper bits, complement flag in bit 0.
using Lit = std::uint32_t;

constexpr Lit make_lit(std::uint32_t node, bool complemented = false) {
  return (node << 1) | static_cast<Lit>(complemented);
}
constexpr std::uint32_t lit_node(Lit l) { return l >> 1; }
constexpr bool lit_is_complemented(Lit l) { return (l & 1u) != 0; }
constexpr Lit lit_not(Lit l) { return l ^ 1u; }
constexpr Lit lit_notif(Lit l, bool c) { return l ^ static_cast<Lit>(c); }

/// And-inverter graph with structural hashing and constant propagation.
class Aig {
 public:
  static constexpr Lit kConst0 = 0;
  static constexpr Lit kConst1 = 1;

  Aig() { nodes_.push_back(Node{kPiMark, kPiMark}); }  // node 0: constant

  /// Adds a primary input; returns its (positive) literal.
  Lit create_pi(std::string name = {});

  /// Adds (or finds) the AND of two literals.  Performs the usual constant
  /// and idempotence simplifications, so the result may be an existing
  /// literal rather than a fresh node.
  Lit create_and(Lit a, Lit b);

  // Derived operators, built from AND/NOT with structural sharing.
  Lit create_or(Lit a, Lit b) {
    return lit_not(create_and(lit_not(a), lit_not(b)));
  }
  Lit create_xor(Lit a, Lit b);
  Lit create_or3(Lit a, Lit b, Lit c) { return create_or(create_or(a, b), c); }
  Lit create_xor3(Lit a, Lit b, Lit c) {
    return create_xor(create_xor(a, b), c);
  }
  /// if s then t else e
  Lit create_ite(Lit s, Lit t, Lit e) {
    return create_or(create_and(s, t), create_and(lit_not(s), e));
  }
  Lit create_maj3(Lit a, Lit b, Lit c) {
    return create_or(create_and(a, b), create_and(c, create_or(a, b)));
  }

  /// Registers a primary output driven by `l`.  Returns the output index.
  std::uint32_t create_po(Lit l, std::string name = {});

  // --- Introspection -------------------------------------------------------

  std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  std::uint32_t num_pis() const {
    return static_cast<std::uint32_t>(pis_.size());
  }
  std::uint32_t num_pos() const {
    return static_cast<std::uint32_t>(pos_.size());
  }
  /// Number of AND nodes (the paper's "gate count" for AIGs).
  std::uint32_t num_ands() const {
    return num_nodes() - num_pis() - 1;
  }

  bool is_const0(std::uint32_t node) const { return node == 0; }
  bool is_pi(std::uint32_t node) const {
    return node != 0 && nodes_[node].fanin0 == kPiMark;
  }
  bool is_and(std::uint32_t node) const {
    return node != 0 && nodes_[node].fanin0 != kPiMark;
  }

  Lit fanin0(std::uint32_t node) const {
    T1MAP_ASSERT(is_and(node));
    return nodes_[node].fanin0;
  }
  Lit fanin1(std::uint32_t node) const {
    T1MAP_ASSERT(is_and(node));
    return nodes_[node].fanin1;
  }

  std::span<const std::uint32_t> pis() const { return pis_; }
  std::span<const Lit> pos() const { return pos_; }
  Lit po(std::uint32_t index) const { return pos_.at(index); }

  const std::string& pi_name(std::uint32_t index) const {
    return pi_names_.at(index);
  }
  const std::string& po_name(std::uint32_t index) const {
    return po_names_.at(index);
  }

  /// Logic level of each node (PIs and constant at level 0).
  std::vector<int> levels() const;

  /// Maximum PO driver level.
  int depth() const;

  /// Fanout count per node, counting PO uses.
  std::vector<std::uint32_t> fanout_counts() const;

  /// Copy with only the nodes reachable from POs, preserving PI order and
  /// all POs.  `old_to_new`, when given, receives the literal translation
  /// of every old node's positive literal (or kUnmapped).
  Aig cleaned(std::vector<Lit>* old_to_new = nullptr) const;

  static constexpr Lit kUnmapped = 0xFFFFFFFFu;

  // --- Cut-enumeration network view ---------------------------------------

  std::size_t size() const { return nodes_.size(); }
  /// Leaves of the cut DAG: constants and PIs stop cut expansion.
  bool cut_is_leaf(std::uint32_t node) const { return !is_and(node); }
  /// Fanin node ids (complements folded into cut_local_tt).
  void cut_fanins(std::uint32_t node, std::uint32_t out[3], int& n) const {
    T1MAP_ASSERT(is_and(node));
    out[0] = lit_node(nodes_[node].fanin0);
    out[1] = lit_node(nodes_[node].fanin1);
    n = 2;
  }
  /// Local function of the node over its fanins, complements included.
  Tt cut_local_tt(std::uint32_t node) const {
    T1MAP_ASSERT(is_and(node));
    Tt a = Tt::var(2, 0);
    Tt b = Tt::var(2, 1);
    if (lit_is_complemented(nodes_[node].fanin0)) a = ~a;
    if (lit_is_complemented(nodes_[node].fanin1)) b = ~b;
    return a & b;
  }

 private:
  static constexpr Lit kPiMark = 0xFFFFFFFFu;

  struct Node {
    Lit fanin0;
    Lit fanin1;
  };

  static std::uint64_t strash_key(Lit a, Lit b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  /// Index of the slot of (a, b) in `strash_`: the slot holding the AND
  /// node with those fanins, or the empty slot where it would go.
  std::size_t strash_slot(Lit a, Lit b) const;
  /// Resizes `strash_` to `capacity` slots (a power of two) and re-inserts
  /// every AND node from `nodes_`.
  void rehash_strash(std::size_t capacity);

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> pis_;
  std::vector<Lit> pos_;
  std::vector<std::string> pi_names_;
  std::vector<std::string> po_names_;
  /// Structural hash: an open-addressing table of AND node ids, probed
  /// linearly from `mix64(strash_key(fanin0, fanin1))`, at most half full.
  /// 0 marks an empty slot (node 0 is the constant, never an AND).  It
  /// holds node ids only, so it never allocates per AND, and a copied Aig
  /// copies one flat array.
  std::vector<std::uint32_t> strash_;
};

}  // namespace t1map
