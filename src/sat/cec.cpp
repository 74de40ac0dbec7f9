#include "sat/cec.hpp"

#include <algorithm>
#include <array>
#include <functional>

#include "sat/cnf.hpp"

namespace t1map::sat {

namespace {

using AigLit = t1map::Lit;

/// An encoded miter: shared PI literals plus one XOR difference literal per
/// output pair.  Encoding is deterministic, so re-encoding into another
/// solver yields identical literal numbering.
struct Miter {
  std::vector<Lit> pis;
  std::vector<Lit> diffs;
};

/// Re-runnable encoder: resets the target solver and builds the miter CNF.
/// The canonical counterexample re-solve encodes it into a fresh solver.
using MiterEncoder = std::function<Miter(Solver&)>;

std::vector<Lit> make_diffs(Solver& solver, std::span<const Lit> out_a,
                            std::span<const Lit> out_b) {
  T1MAP_REQUIRE(out_a.size() == out_b.size(), "miter: PO count mismatch");
  std::vector<Lit> diffs;
  diffs.reserve(out_a.size());
  for (std::size_t i = 0; i < out_a.size(); ++i) {
    const Lit d = fresh_lit(solver);
    encode_xor2(solver, d, out_a[i], out_b[i]);
    diffs.push_back(d);
  }
  return diffs;
}

/// Distinguishing input assignment for pair `target`, re-derived on a fresh
/// default-configured solver.  Which *model* a SAT solver returns depends
/// on its entire search history; routing every counterexample through this
/// one deterministic solve makes it independent of the sweep's hints and
/// of whatever the checking solver learned before.
std::vector<bool> canonical_counterexample(const MiterEncoder& encode,
                                           std::size_t target) {
  Solver solver;
  const Miter m = encode(solver);
  const Lit assumption[1] = {m.diffs[target]};
  const Solver::Result r = solver.solve(assumption);
  T1MAP_REQUIRE(r == Solver::Result::kSat,
                "CEC: counterexample re-solve did not reproduce SAT");
  std::vector<bool> cex;
  cex.reserve(m.pis.size());
  for (const Lit p : m.pis) cex.push_back(solver.model_value(lit_var(p)));
  return cex;
}

/// The conflict budget of one check: a single countdown shared by all its
/// queries (< 0: unlimited).  Each query solves under whatever is left.
class Budget {
 public:
  explicit Budget(std::int64_t limit) : left_(limit) {}

  Solver::Result solve(Solver& solver, Lit assumption) {
    const Lit assumptions[1] = {assumption};
    const std::int64_t before = solver.num_conflicts();
    const Solver::Result r = solver.solve(assumptions, left_ < 0 ? -1 : left_);
    if (left_ >= 0) {
      left_ = std::max<std::int64_t>(
          0, left_ - (solver.num_conflicts() - before));
    }
    return r;
  }

 private:
  std::int64_t left_;
};

/// Records the verdict of an output whose query did not come back UNSAT.
void fail_output(CecResult& result, Solver::Result r, std::size_t output,
                 const MiterEncoder& encode) {
  result.failing_output = static_cast<std::int32_t>(output);
  if (r == Solver::Result::kSat) {
    result.verdict = CecResult::Verdict::kNotEquivalent;
    result.counterexample = canonical_counterexample(encode, output);
  } else {
    result.verdict = CecResult::Verdict::kUnknown;
  }
}

/// The whole-output miter, refuted pair by pair in output order on the
/// caller's solver, sharing one CNF and all learned clauses.
CecResult solve_miter(const MiterEncoder& encode, Solver& solver,
                      std::int64_t conflict_limit) {
  CecResult result;
  result.verdict = CecResult::Verdict::kEquivalent;
  Budget budget(conflict_limit);
  const std::int64_t before = solver.num_conflicts();
  const Miter m = encode(solver);
  for (std::size_t i = 0; i < m.diffs.size(); ++i) {
    ++result.po_queries;
    const Solver::Result r = budget.solve(solver, m.diffs[i]);
    if (r == Solver::Result::kUnsat) continue;  // this pair is equivalent
    fail_output(result, r, i, encode);
    break;
  }
  result.conflicts = solver.num_conflicts() - before;
  return result;
}

/// One cell input's value as a function `fn` of up to three AIG literals:
/// its representative alone (one argument), or — *expanded* — its driver
/// cell's function over that cell's input representatives (two or three).
struct LocalInput {
  Tt fn;
  std::array<AigLit, 3> args{};
  std::uint8_t nargs = 0;
};

/// Local proofs (see cec.hpp): does the AIG literal `origin` equal
/// `cell(inputs)` for every value of a small cut of the AIG?  The cut is
/// the inputs' argument nodes plus at most two extra nodes: the mapper
/// drops cut leaves a cell's function does not depend on
/// (`compress_support`), and the origin's cone reaches through them to
/// primary inputs.  Cut nodes are free variables, which over-approximates
/// the values they can take together, so a match is a proof and a mismatch
/// only means "try something else".
class LocalProver {
 public:
  explicit LocalProver(const Aig& aig)
      : aig_(aig), cut_mark_(aig.num_nodes(), 0), seen_(aig.num_nodes(), 0),
        open_(aig.num_nodes(), 0), slot_(aig.num_nodes(), 0),
        ord_(aig.num_nodes(), 0), idom_(aig.num_nodes(), 0) {}

  bool prove(const Tt& cell, std::span<const LocalInput> inputs, AigLit origin,
             bool with_extras) {
    leaves_.clear();
    for (const LocalInput& in : inputs) {
      for (std::uint8_t a = 0; a < in.nargs; ++a) {
        const std::uint32_t n = lit_node(in.args[a]);
        if (n != 0 && std::find(leaves_.begin(), leaves_.end(), n) ==
                          leaves_.end()) {
          leaves_.push_back(n);
        }
      }
    }
    if (leaves_.size() > Tt::kMaxVars) return false;
    if (attempt(cell, inputs, origin, {})) return true;
    if (!with_extras || leaves_.size() == Tt::kMaxVars) return false;

    // Extra cut nodes must block every path from the root to an open end
    // of its cone: one extra dominating them all, else two splitting them
    // below their common dominator.
    const std::uint32_t root = lit_node(origin);
    if (!find_open_ends(root)) return false;
    std::uint32_t common = opens_[0];
    for (const std::uint32_t p : opens_) common = intersect(common, p);
    if (common != root) {
      chain(root, common, chain_a_);
      for (const std::uint32_t e : chain_a_) {
        const std::uint32_t extra[1] = {e};
        if (attempt(cell, inputs, origin, extra)) return true;
      }
    }
    if (leaves_.size() + 2 > Tt::kMaxVars) return false;
    std::uint32_t side[2] = {kUnset, kUnset};  // common dominators per side
    std::uint32_t below[2] = {kUnset, kUnset};  // subtree just below common
    for (const std::uint32_t p : opens_) {
      if (p == common) return false;
      std::uint32_t x = p;
      while (idom_[x] != common) x = idom_[x];
      const int k = below[0] == kUnset || below[0] == x ? 0 : 1;
      if (k == 1 && below[1] != kUnset && below[1] != x) return false;
      below[k] = x;
      side[k] = side[k] == kUnset ? p : intersect(side[k], p);
    }
    if (below[1] == kUnset) return false;
    chain(common, side[0], chain_a_);
    chain(common, side[1], chain_b_);
    for (const std::uint32_t a : chain_a_) {
      for (const std::uint32_t b : chain_b_) {
        const std::uint32_t extra[2] = {a, b};
        if (attempt(cell, inputs, origin, extra)) return true;
      }
    }
    return false;
  }

 private:
  static constexpr std::size_t kMaxCone = 512;   // nodes per proof attempt
  static constexpr std::size_t kMaxWalk = 4096;  // nodes per extras search
  static constexpr std::size_t kMaxChain = 8;    // dominators per extra
  static constexpr std::uint32_t kUnset = 0xFFFFFFFFu;

  /// Starts a new stamp epoch with `leaves_` + `extra` as the cut.
  void mark_cut(std::span<const std::uint32_t> extra) {
    if (++epoch_ == 0) {  // wrapped: clear the stale stamps once
      for (auto* stamps : {&cut_mark_, &seen_, &open_}) {
        std::fill(stamps->begin(), stamps->end(), 0u);
      }
      epoch_ = 1;
    }
    cut_.assign(leaves_.begin(), leaves_.end());
    cut_.insert(cut_.end(), extra.begin(), extra.end());
    lowest_ = kUnset;
    for (const std::uint32_t n : cut_) {
      cut_mark_[n] = epoch_;
      lowest_ = std::min(lowest_, n);
    }
  }
  bool in_cut(std::uint32_t n) const { return cut_mark_[n] == epoch_; }
  /// True for a node outside the cut whose cone cannot close: a PI, or a
  /// node below every cut node (ids are topological, so its cone holds
  /// none of them).
  bool is_open(std::uint32_t n) const {
    return !aig_.is_and(n) || n < lowest_;
  }

  /// Breadth-first walk of the root's cone above the cut into `order_`.
  /// True when the cone is closed: every path ends in the cut or the
  /// constant, within `limit` nodes.
  bool walk(std::uint32_t root, std::size_t limit) {
    order_.clear();
    if (root == 0 || in_cut(root)) return true;
    seen_[root] = epoch_;
    order_.push_back(root);
    for (std::size_t head = 0; head < order_.size(); ++head) {
      const std::uint32_t n = order_[head];
      if (is_open(n)) return false;
      for (const AigLit f : {aig_.fanin0(n), aig_.fanin1(n)}) {
        const std::uint32_t m = lit_node(f);
        if (m == 0 || in_cut(m) || seen_[m] == epoch_) continue;
        if (order_.size() >= limit) return false;
        seen_[m] = epoch_;
        order_.push_back(m);
      }
    }
    return true;
  }

  /// Walks the root's cone above the inputs' nodes and collects its open
  /// ends (`is_open`, and the nodes left unexpanded at the walk limit)
  /// with the cone's dominator tree in `idom_`.  False when nothing is
  /// open.
  bool find_open_ends(std::uint32_t root) {
    mark_cut({});
    order_.clear();
    opens_.clear();
    if (root == 0 || in_cut(root) || is_open(root)) return false;
    seen_[root] = epoch_;
    order_.push_back(root);
    for (std::size_t head = 0; head < order_.size(); ++head) {
      const std::uint32_t n = order_[head];
      if (is_open(n) || order_.size() >= kMaxWalk) {
        open_[n] = epoch_;
        opens_.push_back(n);
        continue;
      }
      for (const AigLit f : {aig_.fanin0(n), aig_.fanin1(n)}) {
        const std::uint32_t m = lit_node(f);
        if (m == 0 || in_cut(m) || seen_[m] == epoch_) continue;
        seen_[m] = epoch_;
        order_.push_back(m);
      }
    }
    if (opens_.empty()) return false;
    // Consumers (higher ids) first: a node's immediate dominator is the
    // common dominator of its consumers in the cone.
    std::sort(order_.begin(), order_.end(), std::greater<>());
    for (std::size_t i = 0; i < order_.size(); ++i) {
      ord_[order_[i]] = static_cast<std::uint32_t>(i);
      idom_[order_[i]] = kUnset;
    }
    idom_[root] = root;
    for (const std::uint32_t n : order_) {
      if (open_[n] == epoch_) continue;  // its fanins are not in the walk
      for (const AigLit f : {aig_.fanin0(n), aig_.fanin1(n)}) {
        const std::uint32_t m = lit_node(f);
        if (m == 0 || in_cut(m)) continue;
        idom_[m] = idom_[m] == kUnset ? n : intersect(idom_[m], n);
      }
    }
    return true;
  }

  std::uint32_t intersect(std::uint32_t a, std::uint32_t b) const {
    while (a != b) {
      while (ord_[a] > ord_[b]) a = idom_[a];
      while (ord_[b] > ord_[a]) b = idom_[b];
    }
    return a;
  }

  /// The dominators of `from` strictly below `stop`, nearest `stop` first.
  void chain(std::uint32_t stop, std::uint32_t from,
             std::vector<std::uint32_t>& out) const {
    out.clear();
    for (std::uint32_t x = from; x != stop; x = idom_[x]) out.push_back(x);
    std::reverse(out.begin(), out.end());
    if (out.size() > kMaxChain) out.resize(kMaxChain);
  }

  Tt literal_tt(AigLit l, int nvars) const {
    const std::uint32_t n = lit_node(l);
    Tt t(nvars);
    if (n != 0) {
      t = in_cut(n) ? Tt::var(nvars, cut_index(n)) : tts_[slot_[n]];
    }
    return lit_is_complemented(l) ? ~t : t;
  }
  int cut_index(std::uint32_t n) const {
    return static_cast<int>(std::find(cut_.begin(), cut_.end(), n) -
                            cut_.begin());
  }

  bool attempt(const Tt& cell, std::span<const LocalInput> inputs,
               AigLit origin, std::span<const std::uint32_t> extra) {
    mark_cut(extra);
    if (!walk(lit_node(origin), kMaxCone)) return false;
    // Node ids are topological: evaluate the cone bottom-up.
    std::sort(order_.begin(), order_.end());
    const int nvars = static_cast<int>(cut_.size());
    tts_.clear();
    for (const std::uint32_t n : order_) {
      slot_[n] = static_cast<std::uint32_t>(tts_.size());
      tts_.push_back(literal_tt(aig_.fanin0(n), nvars) &
                     literal_tt(aig_.fanin1(n), nvars));
    }
    input_tts_.clear();
    for (const LocalInput& in : inputs) {
      arg_tts_.clear();
      for (std::uint8_t a = 0; a < in.nargs; ++a) {
        arg_tts_.push_back(literal_tt(in.args[a], nvars));
      }
      input_tts_.push_back(compose(in.fn, arg_tts_));
    }
    return compose(cell, input_tts_) == literal_tt(origin, nvars);
  }

  const Aig& aig_;
  std::uint32_t epoch_ = 0;
  std::uint32_t lowest_ = 0;  // lowest node id in the cut
  // Per AIG node.
  std::vector<std::uint32_t> cut_mark_;  // == epoch_: in the cut
  std::vector<std::uint32_t> seen_;      // == epoch_: visited by the walk
  std::vector<std::uint32_t> open_;      // == epoch_: an open end
  std::vector<std::uint32_t> slot_;      // cone node -> index in tts_
  std::vector<std::uint32_t> ord_;       // position, consumers first
  std::vector<std::uint32_t> idom_;      // immediate dominator
  // Per attempt.
  std::vector<std::uint32_t> leaves_;
  std::vector<std::uint32_t> cut_;
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> opens_;
  std::vector<std::uint32_t> chain_a_;
  std::vector<std::uint32_t> chain_b_;
  std::vector<Tt> tts_;
  std::vector<Tt> arg_tts_;
  std::vector<Tt> input_tts_;
};

/// The correspondence sweep over a netlist with origins (see cec.hpp).
class Sweep {
 public:
  Sweep(const Aig& aig, const sfq::Netlist& ntk, std::int64_t conflict_limit,
        Solver& solver)
      : aig_(aig), ntk_(ntk), solver_(solver), budget_(conflict_limit),
        prover_(aig) {}

  CecResult run(const MiterEncoder& encode) {
    const std::int64_t before = solver_.num_conflicts();
    rep_.assign(ntk_.num_nodes(), Rep{});
    std::uint32_t pi_index = 0;
    for (std::uint32_t id = 0; id < ntk_.num_nodes(); ++id) {
      switch (ntk_.kind(id)) {
        case sfq::CellKind::kPi:
          rep_[id] = {RepKind::kAig, make_lit(aig_.pis()[pi_index++])};
          break;
        case sfq::CellKind::kConst0:
          rep_[id] = {RepKind::kAig, Aig::kConst0};
          break;
        case sfq::CellKind::kConst1:
          rep_[id] = {RepKind::kAig, Aig::kConst1};
          break;
        case sfq::CellKind::kDff:
          rep_[id] = rep_[ntk_.fanins(id)[0]];
          break;
        case sfq::CellKind::kT1:
          break;  // no value; its taps are the cells
        default:  // logic cells and T1 taps
          rep_[id] = prove_cell(id);
          break;
      }
    }

    result_.verdict = CecResult::Verdict::kEquivalent;
    for (std::uint32_t i = 0; i < aig_.num_pos(); ++i) {
      const Rep r = rep_[ntk_.pos()[i].driver];
      const AigLit want = aig_.po(i);
      if (r.kind == RepKind::kAig && r.lit == want) continue;
      if (exhausted_ || r.kind == RepKind::kNone) {
        fail_output(result_, Solver::Result::kUnknown, i, encode);
        break;
      }
      ++result_.po_queries;
      const Lit got = solver_lit(r);  // encoding order fixes variable ids
      const Solver::Result res = query(got, aig_lit(want));
      if (res == Solver::Result::kUnsat) continue;
      fail_output(result_, res, i, encode);
      break;
    }
    result_.conflicts = solver_.num_conflicts() - before;
    return result_;
  }

 private:
  /// A node's representative: an AIG literal once proven, else a solver
  /// literal; nothing for cells skipped after the budget ran out.
  enum class RepKind : std::uint8_t { kNone, kAig, kSolver };
  struct Rep {
    RepKind kind = RepKind::kNone;
    std::uint32_t lit = 0;
  };

  Rep prove_cell(std::uint32_t id) {
    const std::span<const std::uint32_t> ins =
        ntk_.is_tap(id) ? ntk_.fanins(ntk_.fanins(id)[0]) : ntk_.fanins(id);
    const Tt cell = sfq::cell_tt(ntk_.kind(id));
    const AigLit origin = ntk_.origin(id);
    const bool has_origin = origin != sfq::Netlist::kNoOrigin &&
                            lit_node(origin) < aig_.num_nodes();

    // Buffers and inverters need no query: their input's representative
    // (complemented for an inverter) is their value.  Most inverters merely
    // complement their input's origin; a buffer or inverter the mapper
    // chose to cover a node is proved against that node, which lets its
    // consumers' cuts stop where their origins expect.
    const sfq::CellKind kind = ntk_.kind(id);
    if (kind == sfq::CellKind::kBuf || kind == sfq::CellKind::kNot) {
      Rep through = rep_[ins[0]];
      // Bit 0 negates both AIG and solver literals.
      through.lit ^= kind == sfq::CellKind::kNot ? 1u : 0u;
      if (!has_origin || through.kind != RepKind::kAig ||
          through.lit == origin || !prove_locally(ins, cell, origin)) {
        return through;
      }
      ++result_.cells_local;
      return {RepKind::kAig, origin};
    }

    bool all_aig = true;
    bool any_none = false;
    for (const std::uint32_t f : ins) {
      all_aig &= rep_[f].kind == RepKind::kAig;
      any_none |= rep_[f].kind == RepKind::kNone;
    }
    if (has_origin && all_aig && prove_locally(ins, cell, origin)) {
      ++result_.cells_local;
      return {RepKind::kAig, origin};
    }
    if (exhausted_ || any_none) return {};

    // SAT fallback: the cell over its inputs' literals, then one query
    // against the origin.
    ensure_solver_reset();
    sat_ins_.clear();
    for (const std::uint32_t f : ins) sat_ins_.push_back(solver_lit(rep_[f]));
    const Lit out = fresh_lit(solver_);
    encode_tt(solver_, out, cell, sat_ins_);
    const Rep structural{RepKind::kSolver, static_cast<std::uint32_t>(out)};
    if (!has_origin) return structural;
    switch (query(out, aig_lit(origin))) {
      case Solver::Result::kUnsat:
        ++result_.cells_sat;
        return {RepKind::kAig, origin};
      case Solver::Result::kSat:
        ++result_.hints_refuted;
        return structural;
      case Solver::Result::kUnknown:
        break;
    }
    exhausted_ = true;
    return structural;
  }

  /// Local proof of a cell whose inputs are all proven: over the plain
  /// inputs first, then with one input, then all inputs expanded into their
  /// driver cells — which reaches past a T1 tap shared by several replaced
  /// roots, whose origin names only one of them.  Extra cut nodes are tried
  /// only once every variant failed without them.
  bool prove_locally(std::span<const std::uint32_t> ins, const Tt& cell,
                     AigLit origin) {
    plain_.clear();
    expanded_.clear();
    std::size_t num_expandable = 0;
    for (const std::uint32_t f : ins) {
      plain_.push_back(LocalInput{Tt::var(1, 0), {rep_[f].lit}, 1});
      expanded_.push_back(expand(f));
      num_expandable += expanded_.back().nargs > 1 ? 1 : 0;
    }
    for (const bool with_extras : {false, true}) {
      if (prover_.prove(cell, plain_, origin, with_extras)) return true;
      for (std::size_t j = 0; j < ins.size(); ++j) {
        if (expanded_[j].nargs <= 1) continue;
        variant_ = plain_;
        variant_[j] = expanded_[j];
        if (prover_.prove(cell, variant_, origin, with_extras)) return true;
      }
      if (num_expandable > 1 &&
          prover_.prove(cell, expanded_, origin, with_extras)) {
        return true;
      }
    }
    return false;
  }

  /// Input `f` (proven) as its driver cell's function over the driver's
  /// input representatives, looking through DFFs, buffers and inverters;
  /// the plain representative when the driver is not a proven cell.
  LocalInput expand(std::uint32_t f) const {
    const LocalInput plain{Tt::var(1, 0), {rep_[f].lit}, 1};
    std::uint32_t g = f;
    bool negated = false;
    for (;;) {
      const sfq::CellKind k = ntk_.kind(g);
      if (k != sfq::CellKind::kDff && k != sfq::CellKind::kBuf &&
          k != sfq::CellKind::kNot) {
        break;
      }
      negated ^= k == sfq::CellKind::kNot;
      g = ntk_.fanins(g)[0];
    }
    if (!sfq::cell_is_logic(ntk_.kind(g)) && !ntk_.is_tap(g)) return plain;
    const std::span<const std::uint32_t> g_ins =
        ntk_.is_tap(g) ? ntk_.fanins(ntk_.fanins(g)[0]) : ntk_.fanins(g);
    const Tt fn = sfq::cell_tt(ntk_.kind(g));
    LocalInput out{negated ? ~fn : fn, {}, 0};
    for (const std::uint32_t h : g_ins) {
      if (rep_[h].kind != RepKind::kAig) return plain;
      out.args[out.nargs++] = rep_[h].lit;
    }
    return out;
  }

  /// Can `a` and `b` differ?  Marks the budget exhausted on kUnknown.
  Solver::Result query(Lit a, Lit b) {
    const Lit diff = fresh_lit(solver_);
    encode_xor2(solver_, diff, a, b);
    const Solver::Result r = budget_.solve(solver_, diff);
    exhausted_ |= r == Solver::Result::kUnknown;
    return r;
  }

  /// The solver is reset before the first encoding, so budgeted verdicts
  /// do not depend on its history.  The AIG then enters it cone by cone,
  /// as queries reach it: a query's search stays within the logic it is
  /// about.
  void ensure_solver_reset() {
    if (encoded_) return;
    solver_.reset();
    node_lit_.assign(aig_.num_nodes(), kUnencoded);
    encoded_ = true;
  }

  Lit aig_lit(AigLit l) {
    ensure_solver_reset();
    encode_cone(lit_node(l));
    const Lit base = node_lit_[lit_node(l)];
    return lit_is_complemented(l) ? lit_negate(base) : base;
  }

  /// Encodes the not yet encoded part of the cone of AIG node `root`.
  void encode_cone(std::uint32_t root) {
    stack_.assign(1, root);
    while (!stack_.empty()) {
      const std::uint32_t n = stack_.back();
      if (node_lit_[n] != kUnencoded) {
        stack_.pop_back();
        continue;
      }
      if (!aig_.is_and(n)) {  // constant (pinned false) or PI
        node_lit_[n] = fresh_lit(solver_);
        if (n == 0) solver_.add_clause({lit_negate(node_lit_[n])});
        stack_.pop_back();
        continue;
      }
      const std::uint32_t f0 = lit_node(aig_.fanin0(n));
      const std::uint32_t f1 = lit_node(aig_.fanin1(n));
      if (node_lit_[f0] == kUnencoded || node_lit_[f1] == kUnencoded) {
        if (node_lit_[f0] == kUnencoded) stack_.push_back(f0);
        if (node_lit_[f1] == kUnencoded) stack_.push_back(f1);
        continue;
      }
      const auto sat_of = [&](AigLit f) {
        const Lit base = node_lit_[lit_node(f)];
        return lit_is_complemented(f) ? lit_negate(base) : base;
      };
      node_lit_[n] = fresh_lit(solver_);
      encode_and2(solver_, node_lit_[n], sat_of(aig_.fanin0(n)),
                  sat_of(aig_.fanin1(n)));
      stack_.pop_back();
    }
  }
  Lit solver_lit(const Rep& r) {
    return r.kind == RepKind::kAig ? aig_lit(r.lit) : static_cast<Lit>(r.lit);
  }

  const Aig& aig_;
  const sfq::Netlist& ntk_;
  Solver& solver_;
  Budget budget_;
  LocalProver prover_;
  CecResult result_;
  std::vector<Rep> rep_;
  bool exhausted_ = false;
  bool encoded_ = false;
  static constexpr Lit kUnencoded = -1;
  std::vector<Lit> node_lit_;  // per AIG node, once its cone is encoded
  std::vector<std::uint32_t> stack_;
  std::vector<LocalInput> plain_;
  std::vector<LocalInput> expanded_;
  std::vector<LocalInput> variant_;
  std::vector<Lit> sat_ins_;
};

}  // namespace

std::vector<Lit> encode_netlist(Solver& solver, const sfq::Netlist& ntk,
                                std::span<const Lit> pi_lits) {
  using sfq::CellKind;
  T1MAP_REQUIRE(pi_lits.size() == ntk.num_pis(),
                "encode_netlist: wrong number of PI literals");

  std::vector<Lit> node_lit(ntk.num_nodes(), 0);
  std::uint32_t pi_index = 0;
  for (std::uint32_t id = 0; id < ntk.num_nodes(); ++id) {
    const CellKind k = ntk.kind(id);
    switch (k) {
      case CellKind::kPi:
        node_lit[id] = pi_lits[pi_index++];
        break;
      case CellKind::kConst0:
      case CellKind::kConst1: {
        const Lit l = fresh_lit(solver);
        solver.add_clause({k == CellKind::kConst1 ? l : lit_negate(l)});
        node_lit[id] = l;
        break;
      }
      case CellKind::kBuf:
      case CellKind::kDff:
        node_lit[id] = node_lit[ntk.fanins(id)[0]];
        break;
      case CellKind::kNot:
        node_lit[id] = lit_negate(node_lit[ntk.fanins(id)[0]]);
        break;
      case CellKind::kT1:
        node_lit[id] = 0;  // no value; taps encode the functions
        break;
      default: {
        const Lit out = fresh_lit(solver);
        std::vector<Lit> ins;
        if (ntk.is_tap(id)) {
          for (const std::uint32_t c : ntk.fanins(ntk.fanins(id)[0])) {
            ins.push_back(node_lit[c]);
          }
        } else {
          for (const std::uint32_t f : ntk.fanins(id)) {
            ins.push_back(node_lit[f]);
          }
        }
        encode_tt(solver, out, sfq::cell_tt(k), ins);
        node_lit[id] = out;
        break;
      }
    }
  }

  std::vector<Lit> pos;
  pos.reserve(ntk.num_pos());
  for (const auto& po : ntk.pos()) pos.push_back(node_lit[po.driver]);
  return pos;
}

CecResult check_equivalence(const Aig& aig, const sfq::Netlist& ntk,
                            std::int64_t conflict_limit) {
  Solver solver;
  return check_equivalence(aig, ntk, conflict_limit, solver);
}

CecResult check_equivalence(const Aig& aig, const sfq::Netlist& ntk,
                            std::int64_t conflict_limit, Solver& solver) {
  T1MAP_REQUIRE(aig.num_pis() == ntk.num_pis(), "CEC: PI count mismatch");
  T1MAP_REQUIRE(aig.num_pos() == ntk.num_pos(), "CEC: PO count mismatch");
  const MiterEncoder encode = [&aig, &ntk](Solver& s) {
    s.reset();
    // Rough CNF size hint: one variable per node plus ~a dozen literals
    // each (3 ternary clauses per AND, up to 2^3 rows per mapped cell).
    const std::size_t nodes = aig.num_nodes() + ntk.num_nodes();
    s.reserve(static_cast<int>(nodes + aig.num_pos() + 1), 12 * nodes);
    Miter m;
    for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
      m.pis.push_back(fresh_lit(s));
    }
    const AigCnf cnf = encode_aig(s, aig, m.pis);
    const std::vector<Lit> ntk_pos = encode_netlist(s, ntk, m.pis);
    m.diffs = make_diffs(s, cnf.po_lits, ntk_pos);
    return m;
  };
  if (!ntk.has_origins()) return solve_miter(encode, solver, conflict_limit);
  return Sweep(aig, ntk, conflict_limit, solver).run(encode);
}

CecResult check_equivalence(const Aig& a, const Aig& b,
                            std::int64_t conflict_limit) {
  T1MAP_REQUIRE(a.num_pis() == b.num_pis(), "CEC: PI count mismatch");
  T1MAP_REQUIRE(a.num_pos() == b.num_pos(), "CEC: PO count mismatch");
  const MiterEncoder encode = [&a, &b](Solver& s) {
    s.reset();
    const std::size_t nodes = a.num_nodes() + b.num_nodes();
    s.reserve(static_cast<int>(nodes + a.num_pos() + 1), 12 * nodes);
    Miter m;
    for (std::uint32_t i = 0; i < a.num_pis(); ++i) {
      m.pis.push_back(fresh_lit(s));
    }
    const AigCnf cnf_a = encode_aig(s, a, m.pis);
    const AigCnf cnf_b = encode_aig(s, b, m.pis);
    m.diffs = make_diffs(s, cnf_a.po_lits, cnf_b.po_lits);
    return m;
  };
  Solver solver;
  return solve_miter(encode, solver, conflict_limit);
}

}  // namespace t1map::sat
