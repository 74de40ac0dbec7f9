/// \file solver.hpp
/// \brief Conflict-driven clause-learning (CDCL) SAT solver.
///
/// A compact MiniSat-style solver: two-watched-literal propagation with
/// blocker literals, first-UIP conflict analysis, VSIDS-like variable
/// activities kept in a binary heap with phase saving, Luby restarts, and
/// activity-based learned-clause reduction.  It backs the combinational
/// equivalence checks of the mapping flow and the exactness experiments on
/// DFF insertion (the roles OR-Tools CP-SAT and `abc cec` play around the
/// paper).
///
/// Memory layout is flat for speed: all clause literals live in one arena
/// (`lit_pool_`), clauses are (offset, size) records into it, and watcher
/// lists carry a blocker literal so most visits never touch clause memory.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace t1map::sat {

/// Literal encoding: 2*var for the positive literal, 2*var+1 for negated.
using Lit = std::int32_t;

constexpr Lit mk_lit(int var, bool negated = false) {
  return static_cast<Lit>(2 * var + (negated ? 1 : 0));
}
constexpr int lit_var(Lit l) { return l >> 1; }
constexpr bool lit_negated(Lit l) { return (l & 1) != 0; }
constexpr Lit lit_negate(Lit l) { return l ^ 1; }

class Solver {
 public:
  enum class Result { kSat, kUnsat, kUnknown };

  /// Adds a fresh variable; returns its index.
  int new_var();
  int num_vars() const { return static_cast<int>(assign_.size()); }

  /// Pre-sizes the per-variable arrays and the clause arena.  Purely an
  /// allocation hint for encoders that know the CNF size in advance.
  void reserve(int num_vars, std::size_t num_literals = 0);

  /// Clears the formula (variables, clauses, learned clauses, trail,
  /// activities) but keeps the heap allocations of the clause arena and
  /// per-variable arrays, so one solver object can serve many independent
  /// problems without re-paying allocation cost.  The cumulative statistics
  /// (`num_conflicts` etc.) are NOT reset.
  void reset();

  /// Adds a clause (disjunction of literals).  Returns false if the clause
  /// system became trivially unsatisfiable (empty clause).
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// Solves the current formula.  `conflict_limit < 0` means no limit.
  Result solve(std::int64_t conflict_limit = -1) {
    return solve({}, conflict_limit);
  }

  /// Solves under `assumptions` (literals forced as the first decisions).
  /// kUnsat then means *unsatisfiable under the assumptions*; the solver
  /// stays usable afterwards, so one CNF can serve many queries (this is
  /// how CEC proves the miter output-by-output incrementally).
  Result solve(std::span<const Lit> assumptions,
               std::int64_t conflict_limit = -1);

  /// Model access after kSat.
  bool model_value(int var) const { return model_.at(var) > 0; }

  // Statistics (cumulative across solve calls).
  std::int64_t num_conflicts() const { return conflicts_; }
  std::int64_t num_decisions() const { return decisions_; }
  std::int64_t num_propagations() const { return propagations_; }

 private:
  using ClauseRef = std::int32_t;
  static constexpr ClauseRef kNoReason = -1;

  /// Clause record; the literals live in `lit_pool_[offset, offset+size)`.
  struct Clause {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    float activity = 0.0f;
    bool learned = false;
    bool deleted = false;
  };

  /// Watch-list entry.  `blocker` is some literal of the clause other than
  /// the watched one; if it is already true the clause is satisfied and the
  /// visit skips the clause body entirely.  `tagged_cr` stores the clause
  /// ref shifted left once, with bit 0 marking binary clauses: for those the
  /// blocker *is* the rest of the clause, so propagation never touches the
  /// arena (binary clauses are also never deleted by clause reduction).
  struct Watcher {
    std::int32_t tagged_cr;
    Lit blocker;
  };
  static Watcher make_watcher(ClauseRef cr, Lit blocker, bool binary) {
    return Watcher{(cr << 1) | static_cast<std::int32_t>(binary), blocker};
  }
  static ClauseRef watcher_cr(const Watcher& w) { return w.tagged_cr >> 1; }
  static bool watcher_binary(const Watcher& w) {
    return (w.tagged_cr & 1) != 0;
  }

  std::span<Lit> clause_lits(ClauseRef cr) {
    const Clause& c = clauses_[cr];
    return {lit_pool_.data() + c.offset, c.size};
  }
  std::span<const Lit> clause_lits(ClauseRef cr) const {
    const Clause& c = clauses_[cr];
    return {lit_pool_.data() + c.offset, c.size};
  }

  // Assignment values: +1 true, -1 false, 0 unassigned.
  int value(Lit l) const {
    const int v = assign_[lit_var(l)];
    return lit_negated(l) ? -v : v;
  }

  ClauseRef alloc_clause(std::span<const Lit> lits, bool learned);
  void enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();
  void analyze(ClauseRef conflict, std::vector<Lit>& learned,
               int& backtrack_level);
  void backtrack(int level);
  Lit pick_branch();
  void bump_var(int var);
  void bump_clause(ClauseRef cr);
  void decay_activities();
  void reduce_learned();
  void compact_pool();
  void attach(ClauseRef cr);

  // Activity-ordered max-heap over unassigned variables.
  bool heap_contains(int var) const { return heap_pos_[var] >= 0; }
  void heap_insert(int var);
  void heap_sift_up(int i);
  void heap_sift_down(int i);
  int heap_pop();

  int decision_level() const { return static_cast<int>(trail_lim_.size()); }

  std::vector<Lit> lit_pool_;  // every clause's literals, contiguous
  std::vector<Clause> clauses_;
  std::vector<ClauseRef> learned_refs_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by literal
  std::size_t wasted_lits_ = 0;  // arena slots owned by deleted clauses

  std::vector<std::int8_t> assign_;
  std::vector<std::int8_t> model_;
  std::vector<std::int8_t> saved_phase_;
  std::vector<int> level_;
  std::vector<ClauseRef> reason_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  std::size_t qhead_ = 0;

  std::vector<double> activity_;
  std::vector<int> heap_;      // heap of variable indices
  std::vector<int> heap_pos_;  // var -> position in heap_, -1 if absent
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;

  bool unsat_ = false;
  std::int64_t conflicts_ = 0;
  std::int64_t decisions_ = 0;
  std::int64_t propagations_ = 0;

  std::vector<std::int8_t> seen_;      // scratch for analyze()
  std::vector<Lit> add_tmp_;           // scratch for add_clause()
  std::vector<Lit> analyze_tmp_;       // scratch for analyze() minimization
};

}  // namespace t1map::sat
