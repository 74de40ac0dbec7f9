// Simplex and branch-and-bound tests against hand-solved LPs/ILPs and
// randomized cross-checks with brute-force enumeration.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "ilp/ilp.hpp"

namespace t1map::ilp {
namespace {

TEST(Simplex, TextbookLp) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (Hillier-Lieberman)
  // => min -3x - 5y, optimum (2, 6) objective -36.
  Model m;
  const int x = m.add_var(0, 1e9, -3, false);
  const int y = m.add_var(0, 1e9, -5, false);
  m.add_constraint({{x, 1}}, Rel::kLe, 4);
  m.add_constraint({{y, 2}}, Rel::kLe, 12);
  m.add_constraint({{x, 3}, {y, 2}}, Rel::kLe, 18);
  const LpSolution s = solve_lp(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -36.0, 1e-6);
  EXPECT_NEAR(s.x[x], 2.0, 1e-6);
  EXPECT_NEAR(s.x[y], 6.0, 1e-6);
}

TEST(Simplex, GreaterEqualAndEquality) {
  // min x + 2y s.t. x + y >= 3, x - y == 1, x,y >= 0 -> (2,1), obj 4.
  Model m;
  const int x = m.add_var(0, 1e9, 1, false);
  const int y = m.add_var(0, 1e9, 2, false);
  m.add_constraint({{x, 1}, {y, 1}}, Rel::kGe, 3);
  m.add_constraint({{x, 1}, {y, -1}}, Rel::kEq, 1);
  const LpSolution s = solve_lp(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-6);
  EXPECT_NEAR(s.x[x], 2.0, 1e-6);
  EXPECT_NEAR(s.x[y], 1.0, 1e-6);
}

TEST(Simplex, Infeasible) {
  Model m;
  const int x = m.add_var(0, 10, 1, false);
  m.add_constraint({{x, 1}}, Rel::kGe, 5);
  m.add_constraint({{x, 1}}, Rel::kLe, 3);
  EXPECT_EQ(solve_lp(m).status, Status::kInfeasible);
}

TEST(Simplex, Unbounded) {
  Model m;
  const int x = m.add_var(0, std::numeric_limits<double>::infinity(), -1,
                          false);
  m.add_constraint({{x, 1}}, Rel::kGe, 1);
  EXPECT_EQ(solve_lp(m).status, Status::kUnbounded);
}

TEST(Simplex, NegativeLowerBoundsViaShift) {
  // min x s.t. x >= -5 (lo = -5): optimum -5.
  Model m;
  const int x = m.add_var(-5, 10, 1, false);
  const LpSolution s = solve_lp(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.x[x], -5.0, 1e-6);
}

TEST(Simplex, BoundOverridesTightenBox) {
  Model m;
  const int x = m.add_var(0, 10, -1, false);  // max x
  std::vector<double> lo = m.lower_bounds();
  std::vector<double> hi = m.upper_bounds();
  hi[x] = 7;
  const LpSolution s = solve_lp(m, &lo, &hi);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.x[x], 7.0, 1e-6);
}

TEST(Ilp, Knapsack) {
  // max 10a + 6b + 4c s.t. a+b+c <= 2, 5a+4b+3c <= 8, binary.
  // a=b is too heavy (9 > 8); optimum is a=c=1 -> 14.
  Model m;
  const int a = m.add_var(0, 1, -10, true);
  const int b = m.add_var(0, 1, -6, true);
  const int c = m.add_var(0, 1, -4, true);
  m.add_constraint({{a, 1}, {b, 1}, {c, 1}}, Rel::kLe, 2);
  m.add_constraint({{a, 5}, {b, 4}, {c, 3}}, Rel::kLe, 8);
  const IlpSolution s = solve_ilp(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -14.0, 1e-6);
  EXPECT_NEAR(s.x[a], 1.0, 1e-6);
  EXPECT_NEAR(s.x[b], 0.0, 1e-6);
  EXPECT_NEAR(s.x[c], 1.0, 1e-6);
}

TEST(Ilp, FractionalLpIntegerGap) {
  // min -x - y s.t. 2x + 2y <= 5: LP opt 2.5, ILP opt 2 (x+y=2).
  Model m;
  const int x = m.add_var(0, 10, -1, true);
  const int y = m.add_var(0, 10, -1, true);
  m.add_constraint({{x, 2}, {y, 2}}, Rel::kLe, 5);
  const IlpSolution s = solve_ilp(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -2.0, 1e-6);
}

TEST(Ilp, InfeasibleIntegerBox) {
  // 0.4 <= x <= 0.6 has no integer point.
  Model m;
  m.add_var(0.4, 0.6, 1, true);
  EXPECT_EQ(solve_ilp(m).status, Status::kInfeasible);
}

TEST(Ilp, MixedIntegerKeepsContinuousFree) {
  // min y s.t. y >= x - 0.5, x integer in [0,3], y continuous >= 0;
  // x = 0 gives y = 0.
  Model m;
  const int x = m.add_var(0, 3, 0, true);
  const int y = m.add_var(0, 10, 1, false);
  m.add_constraint({{y, 1}, {x, -1}}, Rel::kGe, -0.5);
  const IlpSolution s = solve_ilp(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 0.0, 1e-6);
}

TEST(Ilp, RandomizedAgainstBruteForce) {
  Rng rng(123);
  for (int trial = 0; trial < 40; ++trial) {
    // 3 integer vars in [0,4], 3 random <= constraints, random objective.
    Model m;
    int v[3];
    double obj[3];
    for (int i = 0; i < 3; ++i) {
      obj[i] = static_cast<double>(rng.below(11)) - 5.0;
      v[i] = m.add_var(0, 4, obj[i], true);
    }
    double coef[3][3];
    double rhs[3];
    for (int r = 0; r < 3; ++r) {
      std::vector<Term> terms;
      for (int i = 0; i < 3; ++i) {
        coef[r][i] = static_cast<double>(rng.below(7)) - 3.0;
        terms.push_back({v[i], coef[r][i]});
      }
      rhs[r] = static_cast<double>(rng.below(13)) - 2.0;
      m.add_constraint(terms, Rel::kLe, rhs[r]);
    }

    // Brute force.
    double best = std::numeric_limits<double>::infinity();
    for (int a = 0; a <= 4; ++a) {
      for (int b = 0; b <= 4; ++b) {
        for (int c = 0; c <= 4; ++c) {
          bool ok = true;
          for (int r = 0; r < 3; ++r) {
            if (coef[r][0] * a + coef[r][1] * b + coef[r][2] * c >
                rhs[r] + 1e-9) {
              ok = false;
            }
          }
          if (ok) {
            best = std::min(best, obj[0] * a + obj[1] * b + obj[2] * c);
          }
        }
      }
    }

    const IlpSolution s = solve_ilp(m);
    if (std::isinf(best)) {
      EXPECT_EQ(s.status, Status::kInfeasible) << "trial " << trial;
    } else {
      ASSERT_EQ(s.status, Status::kOptimal) << "trial " << trial;
      EXPECT_NEAR(s.objective, best, 1e-6) << "trial " << trial;
      EXPECT_TRUE(m.is_feasible(s.x));
    }
  }
}

}  // namespace
}  // namespace t1map::ilp
