#include "ilp/simplex.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace t1map::ilp {

namespace {
constexpr double kEps = 1e-9;
constexpr double kFeasEps = 1e-7;
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

std::string to_string(Status s) {
  switch (s) {
    case Status::kOptimal: return "optimal";
    case Status::kInfeasible: return "infeasible";
    case Status::kUnbounded: return "unbounded";
    case Status::kIterLimit: return "iteration-limit";
  }
  return "?";
}

int Model::add_var(double lo, double hi, double obj, bool integer) {
  T1MAP_REQUIRE(std::isfinite(lo), "variable lower bound must be finite");
  T1MAP_REQUIRE(hi >= lo, "variable bounds are inverted");
  lo_.push_back(lo);
  hi_.push_back(hi);
  obj_.push_back(obj);
  integer_.push_back(integer);
  return static_cast<int>(lo_.size()) - 1;
}

void Model::add_constraint(std::vector<Term> terms, Rel rel, double rhs) {
  for (const Term& t : terms) {
    T1MAP_REQUIRE(t.var >= 0 && t.var < num_vars(),
                  "constraint references unknown variable");
  }
  rows_.push_back(Row{std::move(terms), rel, rhs});
}

double Model::objective_value(const std::vector<double>& x) const {
  double v = 0;
  for (int i = 0; i < num_vars(); ++i) v += obj_[i] * x[i];
  return v;
}

bool Model::is_feasible(const std::vector<double>& x, double eps) const {
  if (static_cast<int>(x.size()) != num_vars()) return false;
  for (int i = 0; i < num_vars(); ++i) {
    if (x[i] < lo_[i] - eps || x[i] > hi_[i] + eps) return false;
  }
  for (const Row& row : rows_) {
    double lhs = 0;
    for (const Term& t : row.terms) lhs += t.coeff * x[t.var];
    switch (row.rel) {
      case Rel::kLe:
        if (lhs > row.rhs + eps) return false;
        break;
      case Rel::kGe:
        if (lhs < row.rhs - eps) return false;
        break;
      case Rel::kEq:
        if (std::abs(lhs - row.rhs) > eps) return false;
        break;
    }
  }
  return true;
}

namespace {

/// Dense standard-form tableau solved with the primal simplex method.
///
/// Variables are shifted by their lower bound (x' = x - lo >= 0); finite
/// upper bounds become explicit <= rows.  Phase 1 minimizes the sum of
/// artificial variables; phase 2 minimizes the true objective.
class Tableau {
 public:
  Tableau(const Model& model, const std::vector<double>& lo,
          const std::vector<double>& hi)
      : model_(model), lo_(lo) {
    const int n = model.num_vars();

    // Quick infeasibility: inverted boxes from branch-and-bound tightening.
    for (int i = 0; i < n; ++i) {
      if (lo[i] > hi[i] + kFeasEps) {
        box_infeasible_ = true;
        return;
      }
    }

    // Collect all rows in `a x' (rel) b` form (shifted by lo).
    struct NormRow {
      std::vector<Term> terms;
      Rel rel;
      double rhs;
    };
    std::vector<NormRow> norm;
    norm.reserve(model.rows().size() + n);
    for (const auto& row : model.rows()) {
      double shift = 0;
      for (const Term& t : row.terms) shift += t.coeff * lo[t.var];
      norm.push_back(NormRow{row.terms, row.rel, row.rhs - shift});
    }
    for (int i = 0; i < n; ++i) {
      if (std::isfinite(hi[i]) && hi[i] - lo[i] < kInf) {
        norm.push_back(
            NormRow{{Term{i, 1.0}}, Rel::kLe, hi[i] - lo[i]});
      }
    }

    const int m = static_cast<int>(norm.size());
    // Column layout: [structural n][slack/surplus s][artificial a][rhs].
    int num_slack = 0;
    for (const auto& row : norm) {
      if (row.rel != Rel::kEq) ++num_slack;
    }
    // Artificials are added per-row when needed.
    cols_ = n + num_slack;
    std::vector<int> slack_col(m, -1);
    {
      int next = n;
      for (int r = 0; r < m; ++r) {
        if (norm[r].rel != Rel::kEq) slack_col[r] = next++;
      }
    }

    // First pass: decide which rows need artificials.
    std::vector<int> art_col(m, -1);
    for (int r = 0; r < m; ++r) {
      double rhs = norm[r].rhs;
      Rel rel = norm[r].rel;
      const bool negative = rhs < 0;
      // After sign normalization (multiply row by -1 when rhs < 0):
      //   <= with rhs >= 0: slack is a valid basis column.
      //   >= flipped to <=, etc.
      Rel eff = rel;
      if (negative) {
        eff = (rel == Rel::kLe) ? Rel::kGe : (rel == Rel::kGe ? Rel::kLe : Rel::kEq);
      }
      if (eff != Rel::kLe) art_col[r] = cols_++;
    }

    rows_count_ = m;
    tab_.assign(m + 1, std::vector<double>(cols_ + 1, 0.0));
    basis_.assign(m, -1);

    for (int r = 0; r < m; ++r) {
      double sign = norm[r].rhs < 0 ? -1.0 : 1.0;
      for (const Term& t : norm[r].terms) {
        tab_[r][t.var] += sign * t.coeff;
      }
      if (slack_col[r] >= 0) {
        const double s = (norm[r].rel == Rel::kLe) ? 1.0 : -1.0;
        tab_[r][slack_col[r]] = sign * s;
      }
      tab_[r][cols_] = sign * norm[r].rhs;
      if (art_col[r] >= 0) {
        tab_[r][art_col[r]] = 1.0;
        basis_[r] = art_col[r];
      } else {
        basis_[r] = slack_col[r];
      }
    }
    first_artificial_ = n + num_slack;
    has_artificials_ = cols_ > first_artificial_;
  }

  LpSolution solve() {
    LpSolution result;
    if (box_infeasible_) {
      result.status = Status::kInfeasible;
      return result;
    }

    if (has_artificials_) {
      // Phase 1: minimize sum of artificials.
      std::vector<double> phase1_obj(cols_, 0.0);
      for (int c = first_artificial_; c < cols_; ++c) phase1_obj[c] = 1.0;
      load_objective(phase1_obj);
      const Status s1 = iterate();
      if (s1 != Status::kOptimal) {
        result.status = s1 == Status::kUnbounded ? Status::kInfeasible : s1;
        return result;
      }
      if (-tab_[rows_count_][cols_] > kFeasEps) {
        result.status = Status::kInfeasible;
        return result;
      }
      // Drive any artificial still in the basis out (degenerate rows).
      for (int r = 0; r < rows_count_; ++r) {
        if (basis_[r] < first_artificial_) continue;
        int pivot_col = -1;
        for (int c = 0; c < first_artificial_; ++c) {
          if (std::abs(tab_[r][c]) > 1e-7) {
            pivot_col = c;
            break;
          }
        }
        if (pivot_col >= 0) {
          pivot(r, pivot_col);
        }
        // Otherwise the row is all-zero over real columns: redundant.
      }
    }

    // Phase 2: true objective over structural columns.
    std::vector<double> obj(cols_, 0.0);
    const auto& c = model_.objective();
    for (int i = 0; i < model_.num_vars(); ++i) obj[i] = c[i];
    load_objective(obj, /*forbid_artificials=*/true);
    const Status s2 = iterate(/*forbid_artificials=*/true);
    if (s2 != Status::kOptimal) {
      result.status = s2;
      return result;
    }

    result.status = Status::kOptimal;
    result.x.assign(model_.num_vars(), 0.0);
    for (int r = 0; r < rows_count_; ++r) {
      if (basis_[r] >= 0 && basis_[r] < model_.num_vars()) {
        result.x[basis_[r]] = tab_[r][cols_];
      }
    }
    for (int i = 0; i < model_.num_vars(); ++i) result.x[i] += lo_[i];
    result.objective = model_.objective_value(result.x);
    return result;
  }

 private:
  void load_objective(const std::vector<double>& obj,
                      bool forbid_artificials = false) {
    auto& z = tab_[rows_count_];
    std::fill(z.begin(), z.end(), 0.0);
    for (int c = 0; c < cols_; ++c) z[c] = obj[c];
    (void)forbid_artificials;
    // Price out the basis columns.
    for (int r = 0; r < rows_count_; ++r) {
      const int b = basis_[r];
      const double coeff = z[b];
      if (std::abs(coeff) < kEps) continue;
      for (int c = 0; c <= cols_; ++c) z[c] -= coeff * tab_[r][c];
    }
  }

  Status iterate(bool forbid_artificials = false) {
    const long max_iters = 2000l + 50l * static_cast<long>(cols_ + rows_count_);
    const int limit = forbid_artificials ? first_artificial_ : cols_;
    for (long iter = 0; iter < max_iters; ++iter) {
      // Bland's rule: smallest-index column with negative reduced cost.
      int col = -1;
      for (int c = 0; c < limit; ++c) {
        if (tab_[rows_count_][c] < -1e-9) {
          col = c;
          break;
        }
      }
      if (col < 0) return Status::kOptimal;

      int row = -1;
      double best_ratio = kInf;
      for (int r = 0; r < rows_count_; ++r) {
        if (tab_[r][col] > kEps) {
          const double ratio = tab_[r][cols_] / tab_[r][col];
          if (ratio < best_ratio - kEps ||
              (ratio < best_ratio + kEps &&
               (row < 0 || basis_[r] < basis_[row]))) {
            best_ratio = ratio;
            row = r;
          }
        }
      }
      if (row < 0) return Status::kUnbounded;
      pivot(row, col);
    }
    return Status::kIterLimit;
  }

  void pivot(int row, int col) {
    auto& pr = tab_[row];
    const double p = pr[col];
    T1MAP_ASSERT(std::abs(p) > kEps);
    for (double& v : pr) v /= p;
    for (int r = 0; r <= rows_count_; ++r) {
      if (r == row) continue;
      const double f = tab_[r][col];
      if (std::abs(f) < kEps) continue;
      for (int c = 0; c <= cols_; ++c) tab_[r][c] -= f * pr[c];
    }
    basis_[row] = col;
  }

  const Model& model_;
  std::vector<double> lo_;
  std::vector<std::vector<double>> tab_;
  std::vector<int> basis_;
  int rows_count_ = 0;
  int cols_ = 0;
  int first_artificial_ = 0;
  bool has_artificials_ = false;
  bool box_infeasible_ = false;
};

}  // namespace

LpSolution solve_lp(const Model& model, const std::vector<double>* lo_override,
                    const std::vector<double>* hi_override) {
  const std::vector<double>& lo =
      lo_override != nullptr ? *lo_override : model.lower_bounds();
  const std::vector<double>& hi =
      hi_override != nullptr ? *hi_override : model.upper_bounds();
  T1MAP_REQUIRE(static_cast<int>(lo.size()) == model.num_vars() &&
                    static_cast<int>(hi.size()) == model.num_vars(),
                "bound override size mismatch");
  Tableau tableau(model, lo, hi);
  return tableau.solve();
}

}  // namespace t1map::ilp
