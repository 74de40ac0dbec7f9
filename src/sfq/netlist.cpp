#include "sfq/netlist.hpp"

#include <algorithm>

namespace t1map::sfq {

std::uint32_t Netlist::push_node(Node node) {
  for (int i = 0; i < node.nfanin; ++i) {
    T1MAP_REQUIRE(node.fanin[i] < num_nodes(),
                  "netlist fanin must precede the node");
  }
  nodes_.push_back(node);
  if (!origins_.empty()) origins_.push_back(kNoOrigin);
  return num_nodes() - 1;
}

std::uint32_t Netlist::add_pi(std::string name) {
  const std::uint32_t id = push_node(Node{CellKind::kPi, {}, 0});
  pis_.push_back(id);
  if (name.empty()) name = "pi" + std::to_string(pis_.size() - 1);
  pi_names_.push_back(std::move(name));
  return id;
}

std::uint32_t Netlist::add_const(bool value) {
  return push_node(
      Node{value ? CellKind::kConst1 : CellKind::kConst0, {}, 0});
}

std::uint32_t Netlist::add_cell(CellKind kind,
                                std::span<const std::uint32_t> fanins) {
  T1MAP_REQUIRE(cell_is_logic(kind) || kind == CellKind::kDff,
                "add_cell handles logic cells and DFFs only");
  T1MAP_REQUIRE(static_cast<int>(fanins.size()) == cell_fanin_count(kind),
                "wrong fanin count for cell kind");
  Node node{kind, {}, static_cast<std::uint8_t>(fanins.size())};
  for (std::size_t i = 0; i < fanins.size(); ++i) {
    T1MAP_REQUIRE(!is_t1(fanins[i]),
                  "T1 cores may only be referenced through taps");
    node.fanin[i] = fanins[i];
  }
  return push_node(node);
}

std::uint32_t Netlist::add_t1(std::uint32_t a, std::uint32_t b,
                              std::uint32_t c) {
  for (const std::uint32_t f : {a, b, c}) {
    T1MAP_REQUIRE(f < num_nodes(), "T1 fanin must exist");
    T1MAP_REQUIRE(!is_t1(f), "T1 fanin must not be a T1 core");
    T1MAP_REQUIRE(!is_const(f),
                  "T1 data inputs must be real pulse signals, not constants");
  }
  T1MAP_REQUIRE(a != b && b != c && a != c,
                "T1 data inputs must be three distinct signals");
  return push_node(Node{CellKind::kT1, {a, b, c}, 3});
}

std::uint32_t Netlist::add_t1_tap(std::uint32_t t1, CellKind tap_kind) {
  T1MAP_REQUIRE(is_t1(t1), "tap must reference a T1 core");
  T1MAP_REQUIRE(cell_is_t1_tap(tap_kind), "not a tap kind");
  for (std::uint32_t id = t1 + 1; id < num_nodes(); ++id) {
    if (is_tap(id) && nodes_[id].fanin[0] == t1) {
      T1MAP_REQUIRE(kind(id) != tap_kind, "duplicate tap on one T1 core");
    }
  }
  return push_node(Node{tap_kind, {t1}, 1});
}

void Netlist::add_po(std::uint32_t driver, std::string name) {
  T1MAP_REQUIRE(driver < num_nodes(), "PO driver must exist");
  T1MAP_REQUIRE(!is_t1(driver), "PO must attach to a tap, not a T1 core");
  if (name.empty()) name = "po" + std::to_string(pos_.size());
  pos_.push_back(Po{driver, std::move(name)});
}

std::uint32_t Netlist::num_t1() const { return count_kind(CellKind::kT1); }

std::uint32_t Netlist::count_kind(CellKind k) const {
  std::uint32_t n = 0;
  for (const Node& node : nodes_) {
    if (node.kind == k) ++n;
  }
  return n;
}

std::vector<std::uint32_t> Netlist::fanout_counts() const {
  std::vector<std::uint32_t> count(num_nodes(), 0);
  for (const Node& node : nodes_) {
    for (int i = 0; i < node.nfanin; ++i) ++count[node.fanin[i]];
  }
  for (const Po& po : pos_) ++count[po.driver];
  return count;
}

Netlist::CellTally Netlist::cell_tally() const {
  CellTally t;
  const std::vector<std::uint32_t> fanout = fanout_counts();
  for (std::uint32_t id = 0; id < num_nodes(); ++id) {
    const CellKind kind = nodes_[id].kind;
    t.dffs += kind == CellKind::kDff;
    t.t1_cores += kind == CellKind::kT1;
    t.logic_cells += cell_is_logic(kind);
    t.area_jj += cell_area_jj(kind);
    // T1 cores are exempt: taps are distinct physical pins.
    if (fanout[id] > 1 && kind != CellKind::kT1) t.splitters += fanout[id] - 1;
  }
  t.area_jj += kSplitterAreaJj * t.splitters;
  return t;
}

void Netlist::check_well_formed() const {
  std::vector<std::uint32_t> tap_mask(num_nodes(), 0);
  for (std::uint32_t id = 0; id < num_nodes(); ++id) {
    const Node& node = nodes_[id];
    T1MAP_REQUIRE(static_cast<int>(node.nfanin) ==
                      cell_fanin_count(node.kind),
                  "fanin count mismatch");
    for (int i = 0; i < node.nfanin; ++i) {
      T1MAP_REQUIRE(node.fanin[i] < id, "fanins must precede the node");
      const bool fanin_is_core = is_t1(node.fanin[i]);
      if (fanin_is_core) {
        T1MAP_REQUIRE(is_tap(id), "only taps may read a T1 core");
      }
    }
    if (is_tap(id)) {
      T1MAP_REQUIRE(is_t1(node.fanin[0]), "tap fanin must be a T1 core");
      const int bit = static_cast<int>(node.kind) -
                      static_cast<int>(CellKind::kT1TapS);
      T1MAP_REQUIRE((tap_mask[node.fanin[0]] & (1u << bit)) == 0,
                    "duplicate tap kind on a T1 core");
      tap_mask[node.fanin[0]] |= (1u << bit);
    }
  }
  for (const Po& po : pos_) {
    T1MAP_REQUIRE(po.driver < num_nodes(), "dangling PO");
    T1MAP_REQUIRE(!is_t1(po.driver), "PO attached to T1 core");
  }
}

std::vector<std::uint64_t> Netlist::simulate_nodes(
    std::span<const std::uint64_t> pi_words) const {
  T1MAP_REQUIRE(pi_words.size() == num_pis(), "need one word per PI");
  std::vector<std::uint64_t> value(num_nodes(), 0);
  std::uint32_t pi_index = 0;
  for (std::uint32_t id = 0; id < num_nodes(); ++id) {
    const Node& node = nodes_[id];
    switch (node.kind) {
      case CellKind::kPi:
        value[id] = pi_words[pi_index++];
        break;
      case CellKind::kConst0:
        value[id] = 0;
        break;
      case CellKind::kConst1:
        value[id] = ~0ull;
        break;
      case CellKind::kBuf:
      case CellKind::kDff:
        value[id] = value[node.fanin[0]];
        break;
      case CellKind::kNot:
        value[id] = ~value[node.fanin[0]];
        break;
      case CellKind::kAnd2:
        value[id] = value[node.fanin[0]] & value[node.fanin[1]];
        break;
      case CellKind::kOr2:
        value[id] = value[node.fanin[0]] | value[node.fanin[1]];
        break;
      case CellKind::kXor2:
        value[id] = value[node.fanin[0]] ^ value[node.fanin[1]];
        break;
      case CellKind::kAnd3:
        value[id] = value[node.fanin[0]] & value[node.fanin[1]] &
                    value[node.fanin[2]];
        break;
      case CellKind::kOr3:
        value[id] = value[node.fanin[0]] | value[node.fanin[1]] |
                    value[node.fanin[2]];
        break;
      case CellKind::kXor3:
        value[id] = value[node.fanin[0]] ^ value[node.fanin[1]] ^
                    value[node.fanin[2]];
        break;
      case CellKind::kMaj3: {
        const std::uint64_t a = value[node.fanin[0]];
        const std::uint64_t b = value[node.fanin[1]];
        const std::uint64_t c = value[node.fanin[2]];
        value[id] = (a & b) | (a & c) | (b & c);
        break;
      }
      case CellKind::kT1:
        value[id] = 0;  // cores carry no value; taps read the data fanins
        break;
      case CellKind::kT1TapS:
      case CellKind::kT1TapC:
      case CellKind::kT1TapQ:
      case CellKind::kT1TapCn:
      case CellKind::kT1TapQn: {
        const Node& core = nodes_[node.fanin[0]];
        const std::uint64_t a = value[core.fanin[0]];
        const std::uint64_t b = value[core.fanin[1]];
        const std::uint64_t c = value[core.fanin[2]];
        switch (node.kind) {
          case CellKind::kT1TapS:
            value[id] = a ^ b ^ c;
            break;
          case CellKind::kT1TapC:
            value[id] = (a & b) | (a & c) | (b & c);
            break;
          case CellKind::kT1TapQ:
            value[id] = a | b | c;
            break;
          case CellKind::kT1TapCn:
            value[id] = ~((a & b) | (a & c) | (b & c));
            break;
          default:
            value[id] = ~(a | b | c);
            break;
        }
        break;
      }
    }
  }
  return value;
}

std::vector<std::uint64_t> Netlist::simulate(
    std::span<const std::uint64_t> pi_words) const {
  const auto value = simulate_nodes(pi_words);
  std::vector<std::uint64_t> out;
  out.reserve(num_pos());
  for (const Po& po : pos_) out.push_back(value[po.driver]);
  return out;
}

}  // namespace t1map::sfq
