#include "sat/solver.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace t1map::sat {

namespace {

/// Luby restart sequence (1,1,2,1,1,2,4,...) scaled by `base` conflicts.
std::int64_t luby(std::int64_t base, int i) {
  int k = 1;
  while ((1 << (k + 1)) - 1 <= i + 1) ++k;
  while ((1 << k) - 1 != i + 1) {
    i -= (1 << (k - 1)) - 1 + 1;
    --k;
    while ((1 << (k + 1)) - 1 <= i + 1) ++k;
  }
  return base * (1ll << (k - 1));
}

}  // namespace

int Solver::new_var() {
  const int v = num_vars();
  assign_.push_back(0);
  model_.push_back(0);
  // Saved phase false: good for Tseitin encodings whose cells are mostly
  // falsified.
  saved_phase_.push_back(-1);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  // Tiny index-decreasing bias so activity ties branch on low-index
  // variables first (the PIs in a miter), like the pre-heap linear scan;
  // any real bump (var_inc_ >= 1) immediately dominates it.
  activity_.push_back(-1e-9 * v);
  seen_.push_back(0);
  // After reset() the outer watches_ stays sized so the inner lists keep
  // their capacity; only grow past slots no previous problem used.
  if (watches_.size() < 2 * static_cast<std::size_t>(v) + 2) {
    watches_.emplace_back();
    watches_.emplace_back();
    // Tseitin cells watch each variable a handful of times; pre-sizing the
    // lists removes the growth reallocations during CNF construction.
    watches_[2 * v].reserve(4);
    watches_[2 * v + 1].reserve(4);
  }
  heap_pos_.push_back(-1);
  heap_insert(v);
  return v;
}

void Solver::reset() {
  // clear() keeps vector capacity, which is the point: the big arenas
  // (lit_pool_, clauses_, trail_) stay allocated for the next problem.
  lit_pool_.clear();
  clauses_.clear();
  learned_refs_.clear();
  // Keep watches_ sized: clearing each inner list preserves its heap
  // buffer, and new_var reuses the slots instead of re-allocating them.
  for (auto& w : watches_) w.clear();
  wasted_lits_ = 0;
  assign_.clear();
  model_.clear();
  saved_phase_.clear();
  level_.clear();
  reason_.clear();
  trail_.clear();
  trail_lim_.clear();
  qhead_ = 0;
  activity_.clear();
  heap_.clear();
  heap_pos_.clear();
  var_inc_ = 1.0;
  clause_inc_ = 1.0;
  unsat_ = false;
  seen_.clear();
  add_tmp_.clear();
  analyze_tmp_.clear();
}

void Solver::reserve(int num_vars, std::size_t num_literals) {
  const auto n = static_cast<std::size_t>(num_vars);
  assign_.reserve(n);
  model_.reserve(n);
  saved_phase_.reserve(n);
  level_.reserve(n);
  reason_.reserve(n);
  activity_.reserve(n);
  seen_.reserve(n);
  watches_.reserve(2 * n);
  heap_pos_.reserve(n);
  heap_.reserve(n);
  trail_.reserve(n);
  if (num_literals > 0) lit_pool_.reserve(num_literals);
}

// --- Variable-order heap (max-heap on activity) ------------------------------

void Solver::heap_insert(int var) {
  if (heap_contains(var)) return;
  heap_pos_[var] = static_cast<int>(heap_.size());
  heap_.push_back(var);
  heap_sift_up(heap_pos_[var]);
}

void Solver::heap_sift_up(int i) {
  const int var = heap_[i];
  const double act = activity_[var];
  while (i > 0) {
    const int parent = (i - 1) >> 1;
    if (activity_[heap_[parent]] >= act) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = i;
    i = parent;
  }
  heap_[i] = var;
  heap_pos_[var] = i;
}

void Solver::heap_sift_down(int i) {
  const int var = heap_[i];
  const double act = activity_[var];
  const int n = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        activity_[heap_[child + 1]] > activity_[heap_[child]]) {
      ++child;
    }
    if (activity_[heap_[child]] <= act) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = i;
    i = child;
  }
  heap_[i] = var;
  heap_pos_[var] = i;
}

int Solver::heap_pop() {
  const int top = heap_[0];
  heap_pos_[top] = -1;
  const int last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    heap_pos_[last] = 0;
    heap_sift_down(0);
  }
  return top;
}

// --- Clause arena ------------------------------------------------------------

Solver::ClauseRef Solver::alloc_clause(std::span<const Lit> lits,
                                       bool learned) {
  const ClauseRef cr = static_cast<ClauseRef>(clauses_.size());
  Clause c;
  c.offset = static_cast<std::uint32_t>(lit_pool_.size());
  c.size = static_cast<std::uint32_t>(lits.size());
  c.activity = learned ? static_cast<float>(clause_inc_) : 0.0f;
  c.learned = learned;
  lit_pool_.insert(lit_pool_.end(), lits.begin(), lits.end());
  clauses_.push_back(c);
  return cr;
}

void Solver::compact_pool() {
  std::vector<Lit> live;
  live.reserve(lit_pool_.size() - wasted_lits_);
  for (Clause& c : clauses_) {
    if (c.deleted) continue;
    const std::uint32_t offset = static_cast<std::uint32_t>(live.size());
    live.insert(live.end(), lit_pool_.begin() + c.offset,
                lit_pool_.begin() + c.offset + c.size);
    c.offset = offset;
  }
  lit_pool_ = std::move(live);
  wasted_lits_ = 0;
}

bool Solver::add_clause(std::span<const Lit> lits_in) {
  T1MAP_REQUIRE(decision_level() == 0, "clauses must be added at level 0");
  if (unsat_) return false;

  // Simplify: sort, dedupe, drop false literals, detect tautologies.
  add_tmp_.assign(lits_in.begin(), lits_in.end());
  auto& lits = add_tmp_;
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  std::size_t keep = 0;
  for (std::size_t i = 0; i < lits.size(); ++i) {
    const Lit l = lits[i];
    T1MAP_REQUIRE(lit_var(l) >= 0 && lit_var(l) < num_vars(),
                  "clause references unknown variable");
    if (i + 1 < lits.size() && lits[i + 1] == (l ^ 1)) return true;  // taut
    if (i > 0 && lits[i - 1] == (l ^ 1)) return true;
    if (value(l) == 1 && level_[lit_var(l)] == 0) return true;  // satisfied
    if (value(l) == -1 && level_[lit_var(l)] == 0) continue;    // falsified
    lits[keep++] = l;
  }
  lits.resize(keep);

  if (lits.empty()) {
    unsat_ = true;
    return false;
  }
  if (lits.size() == 1) {
    if (value(lits[0]) == -1) {
      unsat_ = true;
      return false;
    }
    if (value(lits[0]) == 0) {
      enqueue(lits[0], kNoReason);
      if (propagate() != kNoReason) {
        unsat_ = true;
        return false;
      }
    }
    return true;
  }

  attach(alloc_clause(lits, /*learned=*/false));
  return true;
}

void Solver::attach(ClauseRef cr) {
  const auto lits = clause_lits(cr);
  T1MAP_ASSERT(lits.size() >= 2);
  const bool binary = lits.size() == 2;
  watches_[lit_negate(lits[0])].push_back(make_watcher(cr, lits[1], binary));
  watches_[lit_negate(lits[1])].push_back(make_watcher(cr, lits[0], binary));
}

void Solver::enqueue(Lit l, ClauseRef reason) {
  T1MAP_ASSERT(value(l) == 0);
  const int v = lit_var(l);
  assign_[v] = lit_negated(l) ? -1 : 1;
  level_[v] = decision_level();
  reason_[v] = reason;
  trail_.push_back(l);
}

Solver::ClauseRef Solver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];  // p is now true
    ++propagations_;
    auto& ws = watches_[p];  // clauses in which ~p is watched
    std::size_t keep = 0;
    for (std::size_t i = 0; i < ws.size(); ++i) {
      const Watcher w = ws[i];
      // Blocker check: clause already satisfied, body untouched.
      if (value(w.blocker) == 1) {
        ws[keep++] = w;
        continue;
      }
      const ClauseRef cr = watcher_cr(w);
      if (watcher_binary(w)) {
        // Binary clause: the blocker is the whole rest of the clause, so
        // this is a unit or a conflict without loading the arena.
        if (value(w.blocker) == -1) {
          for (; i < ws.size(); ++i) ws[keep++] = ws[i];
          ws.resize(keep);
          qhead_ = trail_.size();
          return cr;
        }
        enqueue(w.blocker, cr);
        ws[keep++] = w;
        continue;
      }
      const Clause& c = clauses_[cr];
      if (c.deleted) continue;  // dropped lazily
      Lit* lits = lit_pool_.data() + c.offset;
      const Lit false_lit = lit_negate(p);
      // Normalize: watched false literal at position 1.
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      T1MAP_ASSERT(lits[1] == false_lit);

      const Lit first = lits[0];
      if (first != w.blocker && value(first) == 1) {  // satisfied
        ws[keep++] = make_watcher(cr, first, false);
        continue;
      }
      // Look for a replacement watch.
      bool moved = false;
      for (std::uint32_t k = 2; k < c.size; ++k) {
        if (value(lits[k]) != -1) {
          std::swap(lits[1], lits[k]);
          watches_[lit_negate(lits[1])].push_back(
              make_watcher(cr, first, false));
          moved = true;
          break;
        }
      }
      if (moved) continue;

      // Unit or conflicting.
      if (value(first) == -1) {
        // Conflict: keep remaining watches and bail out.
        for (; i < ws.size(); ++i) ws[keep++] = ws[i];
        ws.resize(keep);
        qhead_ = trail_.size();
        return cr;
      }
      enqueue(first, cr);
      ws[keep++] = make_watcher(cr, first, false);
    }
    ws.resize(keep);
  }
  return kNoReason;
}

void Solver::analyze(ClauseRef conflict, std::vector<Lit>& learned,
                     int& backtrack_level) {
  learned.clear();
  learned.push_back(0);  // slot for the asserting literal

  int counter = 0;
  Lit p = -1;
  std::size_t index = trail_.size();
  ClauseRef reason = conflict;

  do {
    T1MAP_ASSERT(reason != kNoReason);
    if (clauses_[reason].learned) bump_clause(reason);
    for (const Lit q : clause_lits(reason)) {
      if (p != -1 && q == p) continue;
      const int v = lit_var(q);
      if (seen_[v] || level_[v] == 0) continue;
      seen_[v] = 1;
      bump_var(v);
      if (level_[v] == decision_level()) {
        ++counter;
      } else {
        learned.push_back(q);
      }
    }
    // Walk the trail backwards to the next marked literal.
    while (!seen_[lit_var(trail_[index - 1])]) --index;
    --index;
    p = trail_[index];
    seen_[lit_var(p)] = 0;
    reason = reason_[lit_var(p)];
    --counter;
  } while (counter > 0);
  learned[0] = lit_negate(p);

  // Cheap clause minimization: drop literals implied by the rest at level 0
  // or whose reason's literals are all already in the clause.
  analyze_tmp_.assign(learned.begin() + 1, learned.end());
  std::size_t keep = 1;
  for (std::size_t i = 1; i < learned.size(); ++i) {
    const int v = lit_var(learned[i]);
    const ClauseRef r = reason_[v];
    bool redundant = false;
    if (r != kNoReason) {
      redundant = true;
      for (const Lit q : clause_lits(r)) {
        const int qv = lit_var(q);
        if (qv == v || level_[qv] == 0) continue;
        if (!seen_[qv]) {
          redundant = false;
          break;
        }
      }
    }
    if (!redundant) learned[keep++] = learned[i];
  }
  learned.resize(keep);

  // Backtrack to the second-highest level in the clause.
  backtrack_level = 0;
  for (std::size_t i = 1; i < learned.size(); ++i) {
    backtrack_level = std::max(backtrack_level, level_[lit_var(learned[i])]);
    // Move the highest-level literal into the first watch position.
    if (level_[lit_var(learned[i])] > level_[lit_var(learned[1])]) {
      std::swap(learned[1], learned[i]);
    }
  }

  // Clear marks for every literal that was in the pre-minimization clause,
  // including the ones minimization removed.
  for (const Lit l : analyze_tmp_) seen_[lit_var(l)] = 0;
}

void Solver::backtrack(int target) {
  while (decision_level() > target) {
    const int begin = trail_lim_.back();
    for (int i = static_cast<int>(trail_.size()) - 1; i >= begin; --i) {
      const int v = lit_var(trail_[i]);
      saved_phase_[v] = assign_[v];
      assign_[v] = 0;
      reason_[v] = kNoReason;
      heap_insert(v);
    }
    trail_.resize(begin);
    trail_lim_.pop_back();
  }
  qhead_ = trail_.size();
}

Lit Solver::pick_branch() {
  while (!heap_.empty()) {
    const int v = heap_pop();
    if (assign_[v] == 0) return mk_lit(v, saved_phase_[v] <= 0);
  }
  return -1;
}

void Solver::bump_var(int var) {
  activity_[var] += var_inc_;
  if (activity_[var] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
    // A global rescale preserves the heap order; no fix-up needed.
  }
  if (heap_contains(var)) heap_sift_up(heap_pos_[var]);
}

void Solver::bump_clause(ClauseRef cr) {
  clauses_[cr].activity += static_cast<float>(clause_inc_);
  if (clauses_[cr].activity > 1e20f) {
    for (const ClauseRef r : learned_refs_) clauses_[r].activity *= 1e-20f;
    clause_inc_ *= 1e-20;
  }
}

void Solver::decay_activities() {
  var_inc_ /= 0.95;
  clause_inc_ /= 0.999;
  if (clause_inc_ > 1e20) {
    // Keep increments within float range even if no clause is ever bumped.
    for (const ClauseRef r : learned_refs_) clauses_[r].activity *= 1e-20f;
    clause_inc_ *= 1e-20;
  }
}

void Solver::reduce_learned() {
  // Remove the less active half of the learned clauses, sparing short ones
  // and clauses currently acting as reasons.
  std::vector<ClauseRef> sorted = learned_refs_;
  std::sort(sorted.begin(), sorted.end(), [&](ClauseRef a, ClauseRef b) {
    return clauses_[a].activity < clauses_[b].activity;
  });
  std::vector<bool> is_reason(clauses_.size(), false);
  for (const Lit l : trail_) {
    const ClauseRef r = reason_[lit_var(l)];
    if (r != kNoReason) is_reason[r] = true;
  }
  std::size_t removed = 0;
  for (std::size_t i = 0; i < sorted.size() / 2; ++i) {
    Clause& c = clauses_[sorted[i]];
    if (c.size <= 2 || is_reason[sorted[i]] || c.deleted) continue;
    c.deleted = true;
    wasted_lits_ += c.size;
    ++removed;
  }
  if (removed > 0) {
    learned_refs_.erase(
        std::remove_if(learned_refs_.begin(), learned_refs_.end(),
                       [&](ClauseRef cr) { return clauses_[cr].deleted; }),
        learned_refs_.end());
  }
  // Reclaim the arena once deleted clauses own most of it.
  if (wasted_lits_ > lit_pool_.size() / 2) compact_pool();
}

Solver::Result Solver::solve(std::span<const Lit> assumptions,
                             std::int64_t conflict_limit) {
  if (unsat_) return Result::kUnsat;
  if (propagate() != kNoReason) {
    unsat_ = true;
    return Result::kUnsat;
  }
  const int base_levels = static_cast<int>(assumptions.size());

  const std::int64_t start_conflicts = conflicts_;
  int restart_index = 0;
  std::int64_t restart_budget = luby(100, restart_index);
  std::int64_t conflicts_since_restart = 0;
  std::size_t max_learned = 4000 + clauses_.size() / 2;

  std::vector<Lit> learned;
  for (;;) {
    const ClauseRef conflict = propagate();
    if (conflict != kNoReason) {
      ++conflicts_;
      ++conflicts_since_restart;
      if (decision_level() == 0) {
        unsat_ = true;
        return Result::kUnsat;
      }
      int back_level = 0;
      analyze(conflict, learned, back_level);
      backtrack(back_level);
      if (learned.size() == 1) {
        enqueue(learned[0], kNoReason);
      } else {
        const ClauseRef cr = alloc_clause(learned, /*learned=*/true);
        learned_refs_.push_back(cr);
        attach(cr);
        enqueue(learned[0], cr);
      }
      decay_activities();

      if (conflict_limit >= 0 &&
          conflicts_ - start_conflicts >= conflict_limit) {
        backtrack(0);
        return Result::kUnknown;
      }
      if (conflicts_since_restart >= restart_budget) {
        backtrack(0);
        conflicts_since_restart = 0;
        restart_budget = luby(100, ++restart_index);
      }
      if (learned_refs_.size() > max_learned) {
        reduce_learned();
        max_learned += max_learned / 10;
      }
      continue;
    }

    // Re-establish the assumption prefix (restarts drop it), then branch.
    Lit next = -1;
    while (decision_level() < base_levels) {
      const Lit a = assumptions[decision_level()];
      if (value(a) == 1) {
        // Already implied: open a dummy level so the prefix count holds.
        trail_lim_.push_back(static_cast<int>(trail_.size()));
      } else if (value(a) == -1) {
        // The formula refutes an assumption: UNSAT under assumptions only.
        backtrack(0);
        return Result::kUnsat;
      } else {
        next = a;
        break;
      }
    }
    if (next < 0) {
      next = pick_branch();
      if (next < 0) {
        // Full assignment: record the model.
        model_ = assign_;
        backtrack(0);
        return Result::kSat;
      }
      ++decisions_;
    }
    trail_lim_.push_back(static_cast<int>(trail_.size()));
    enqueue(next, kNoReason);
  }
}

}  // namespace t1map::sat
