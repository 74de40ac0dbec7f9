/// \file simplex.hpp
/// \brief Dense two-phase primal simplex for small linear programs.
///
/// This is the LP engine underneath the branch-and-bound ILP solver used for
/// *exact* multiphase phase assignment (in place of the Google OR-Tools
/// solver of paper §II-B).  It targets the instance sizes produced by
/// test circuits — hundreds of variables and constraints — with a dense
/// tableau and Bland's anti-cycling rule; it is deliberately simple rather
/// than fast.

#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace t1map::ilp {

/// Relation of a linear constraint `lhs (rel) rhs`.
enum class Rel { kLe, kGe, kEq };

/// One term of a linear expression.
struct Term {
  int var;
  double coeff;
};

/// Outcome of an LP / ILP solve.
enum class Status { kOptimal, kInfeasible, kUnbounded, kIterLimit };

std::string to_string(Status s);

/// A linear (or mixed-integer, when `integer[i]` is set) minimization model.
///
/// Variables have box bounds [lo, hi]; `hi` may be +infinity.  Lower bounds
/// must be finite (every problem in this library is naturally bounded below;
/// shift variables if not).
class Model {
 public:
  /// Adds a variable, returns its index.
  int add_var(double lo, double hi, double obj, bool integer,
              std::string name = {});

  /// Adds `terms (rel) rhs`.
  void add_constraint(std::vector<Term> terms, Rel rel, double rhs);

  int num_vars() const { return static_cast<int>(lo_.size()); }

  const std::vector<double>& lower_bounds() const { return lo_; }
  const std::vector<double>& upper_bounds() const { return hi_; }
  const std::vector<double>& objective() const { return obj_; }
  const std::vector<bool>& integrality() const { return integer_; }

  struct Row {
    std::vector<Term> terms;
    Rel rel;
    double rhs;
  };
  const std::vector<Row>& rows() const { return rows_; }

  /// Evaluates the objective at a point.
  double objective_value(const std::vector<double>& x) const;

  /// True if `x` satisfies all rows and bounds within `eps`.
  bool is_feasible(const std::vector<double>& x, double eps = 1e-6) const;

 private:
  std::vector<double> lo_, hi_, obj_;
  std::vector<bool> integer_;
  std::vector<std::string> names_;
  std::vector<Row> rows_;
};

/// LP solution (integrality ignored).
struct LpSolution {
  Status status = Status::kInfeasible;
  std::vector<double> x;
  double objective = std::numeric_limits<double>::infinity();
};

/// Solves the LP relaxation of `model`, honoring the *overridden* bounds when
/// given (used by branch-and-bound to tighten variable boxes without copying
/// the model).
LpSolution solve_lp(const Model& model,
                    const std::vector<double>* lo_override = nullptr,
                    const std::vector<double>* hi_override = nullptr);

}  // namespace t1map::ilp
