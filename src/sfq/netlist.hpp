/// \file netlist.hpp
/// \brief Typed SFQ netlist — the mapped representation the paper's flow
/// transforms.
///
/// Nodes are PIs, constants and cells (including T1 cores and their output
/// taps); primary outputs are sinks referencing driver nodes.  Node ids are
/// a topological order by construction.  Path-balancing DFF *chains* are
/// kept in a separate `RetimeResult` (see retime/) so the combinational
/// structure stays canonical; `materialize_dffs` produces an explicit-DFF
/// netlist for export and cross-checking.
///
/// Structural conventions enforced by `check_well_formed`:
///   * only taps may use a `kT1` core as fanin, and each tap kind appears at
///     most once per core;
///   * `kT1` cores are referenced by taps only (never directly by logic);
///   * fanins precede their node in id order.
///
/// A netlist the flow builds from an AIG also records, per node, the AIG
/// literal the node realizes: its *origin*.  Origins are verification hints
/// (`sat::check_equivalence` proves each cell against its origin), not part
/// of the netlist's identity: digests, the exporters, `check_well_formed`
/// and the serve codec all ignore them.

#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "sfq/cells.hpp"

namespace t1map::sfq {

class Netlist {
 public:
  struct Node {
    CellKind kind;
    std::array<std::uint32_t, 3> fanin{};
    std::uint8_t nfanin = 0;
  };

  struct Po {
    std::uint32_t driver;
    std::string name;
  };

  // --- Construction --------------------------------------------------------

  std::uint32_t add_pi(std::string name = {});
  std::uint32_t add_const(bool value);

  /// Adds a logic cell, DFF or buffer.  Fanins must already exist.
  std::uint32_t add_cell(CellKind kind, std::span<const std::uint32_t> fanins);
  std::uint32_t add_cell(CellKind kind,
                         std::initializer_list<std::uint32_t> fanins) {
    return add_cell(kind, std::span<const std::uint32_t>(fanins.begin(),
                                                         fanins.size()));
  }

  /// Adds a T1 core over three data inputs; outputs are created with
  /// `add_t1_tap`.
  std::uint32_t add_t1(std::uint32_t a, std::uint32_t b, std::uint32_t c);

  /// Adds one output tap of a T1 core.
  std::uint32_t add_t1_tap(std::uint32_t t1, CellKind tap_kind);

  void add_po(std::uint32_t driver, std::string name = {});

  /// Reserves room for `num_nodes` nodes and their origins, so a pass that
  /// knows its output size builds without regrowing.
  void reserve(std::size_t num_nodes) {
    nodes_.reserve(num_nodes);
    origins_.reserve(num_nodes);
  }

  /// Repoints an existing PO at a different driver (fault injection for the
  /// fuzzer's oracle self-test, netlist surgery in tests).
  void set_po_driver(std::uint32_t index, std::uint32_t driver) {
    T1MAP_REQUIRE(index < pos_.size(), "set_po_driver: no such PO");
    T1MAP_REQUIRE(driver < nodes_.size(), "set_po_driver: no such node");
    pos_[index].driver = driver;
  }

  // --- AIG origins ---------------------------------------------------------

  static constexpr std::uint32_t kNoOrigin = 0xFFFFFFFFu;

  /// Records that node `id` realizes AIG literal `aig_lit` (aig.hpp `Lit`).
  /// Setting kNoOrigin on a netlist without origins stays allocation-free,
  /// so copying passes can forward origins unconditionally.
  void set_origin(std::uint32_t id, std::uint32_t aig_lit) {
    T1MAP_REQUIRE(id < num_nodes(), "set_origin: no such node");
    if (origins_.empty()) {
      if (aig_lit == kNoOrigin) return;  // already unset
      origins_.assign(nodes_.size(), kNoOrigin);
    }
    origins_[id] = aig_lit;
  }
  /// The node's AIG literal, or kNoOrigin.
  std::uint32_t origin(std::uint32_t id) const {
    return id < origins_.size() ? origins_[id] : kNoOrigin;
  }
  bool has_origins() const { return !origins_.empty(); }

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

  const Node& node(std::uint32_t id) const { return nodes_[id]; }
  CellKind kind(std::uint32_t id) const { return nodes_[id].kind; }
  std::span<const std::uint32_t> fanins(std::uint32_t id) const {
    return {nodes_[id].fanin.data(), nodes_[id].nfanin};
  }
  std::span<const std::uint32_t> pis() const { return pis_; }
  std::span<const Po> pos() const { return pos_; }
  const std::string& pi_name(std::uint32_t index) const {
    return pi_names_.at(index);
  }

  bool is_pi(std::uint32_t id) const { return kind(id) == CellKind::kPi; }
  bool is_const(std::uint32_t id) const {
    return kind(id) == CellKind::kConst0 || kind(id) == CellKind::kConst1;
  }
  bool is_t1(std::uint32_t id) const { return kind(id) == CellKind::kT1; }
  bool is_tap(std::uint32_t id) const { return cell_is_t1_tap(kind(id)); }

  /// Count of T1 cores.
  std::uint32_t num_t1() const;

  /// Count of nodes of a given kind.
  std::uint32_t count_kind(CellKind kind) const;

  /// Fanout counts (PO references included; taps count as fanouts of the
  /// core only structurally — the core's "fanout" through its pins needs no
  /// splitters, which `splitter_count` accounts for).
  std::vector<std::uint32_t> fanout_counts() const;

  /// Total pulse splitters needed: max(0, fanout-1) per node, where T1
  /// cores are exempt (each tap is a distinct physical pin).
  long splitter_count() const;

  /// Combinational cell area in JJs, *including* splitters, *excluding*
  /// path-balancing DFFs (those live in RetimeResult).
  long cell_area_jj_total() const;

  /// Throws ContractError on any structural violation.
  void check_well_formed() const;

  // --- Functional simulation (64 patterns per word) ------------------------

  /// One value word per node; T1 cores carry 0 (their taps compute the
  /// functions).
  std::vector<std::uint64_t> simulate_nodes(
      std::span<const std::uint64_t> pi_words) const;

  /// One value word per PO.
  std::vector<std::uint64_t> simulate(
      std::span<const std::uint64_t> pi_words) const;

  // --- Cut-enumeration network view (see cut/cut_enum.hpp) -----------------

  std::size_t size() const { return nodes_.size(); }

  /// Cuts stop at PIs, constants, DFFs, T1 cores and taps: T1 detection must
  /// not look through already-committed sequential structure.
  bool cut_is_leaf(std::uint32_t id) const {
    const CellKind k = kind(id);
    return !cell_is_logic(k);
  }
  void cut_fanins(std::uint32_t id, std::uint32_t out[3], int& n) const {
    const auto f = fanins(id);
    n = static_cast<int>(f.size());
    for (int i = 0; i < n; ++i) out[i] = f[i];
  }
  Tt cut_local_tt(std::uint32_t id) const { return cell_tt(kind(id)); }

 private:
  std::uint32_t push_node(Node node);

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> pis_;
  std::vector<Po> pos_;
  std::vector<std::string> pi_names_;
  std::vector<std::uint32_t> origins_;  // empty, or one per node
};

}  // namespace t1map::sfq
