// Differential tests of the warm path. Every SimplexSolver::resolve from an
// optimal state must agree with a cold solve of the same bounds: the same
// status, the objective within 1e-7 relative, and a point feasible for the
// node's rows and bounds. A warm "infeasible" verdict is never accepted
// unless the cold path agrees.
//
// Bounds are tightened the way branch and bound does it (one integer
// variable at a time, floor or ceiling of its current value), so each
// node's bounds nest inside its parent's. Each step is re-solved twice:
// from a copy of the root's state, and in place from the previous step's
// state (the plunging loops' chain).
#include "letdma/milp/simplex.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "letdma/analysis/rta.hpp"
#include "letdma/let/let_comms.hpp"
#include "letdma/let/milp_scheduler.hpp"
#include "letdma/milp/model.hpp"
#include "letdma/support/rng.hpp"
#include "letdma/waters/waters.hpp"

namespace letdma::milp {
namespace {

constexpr double kRelTol = 1e-7;
constexpr double kFeasTol = 1e-6;

struct Bounds {
  std::vector<double> lb, ub;
};

Bounds model_bounds(const Model& m) {
  Bounds b;
  for (int j = 0; j < m.num_vars(); ++j) {
    b.lb.push_back(m.var(j).lb);
    b.ub.push_back(m.var(j).ub);
  }
  return b;
}

/// Largest violation of `x` against `b` and the model rows, each row's
/// scaled by the size of its terms.
double violation(const Model& m, const Bounds& b,
                 const std::vector<double>& x) {
  double worst = 0.0;
  for (std::size_t j = 0; j < x.size(); ++j) {
    worst = std::max({worst, b.lb[j] - x[j], x[j] - b.ub[j]});
  }
  for (int i = 0; i < m.num_constraints(); ++i) {
    const ConstraintInfo& row = m.constraint(i);
    double act = 0.0;
    double scale = std::max(1.0, std::abs(row.rhs));
    for (const LinTerm& t : row.expr.terms()) {
      const double term = t.coef * x[static_cast<std::size_t>(t.var.index)];
      act += term;
      scale = std::max(scale, std::abs(term));
    }
    double v = 0.0;
    if (row.sense != Sense::kGe) v = std::max(v, act - row.rhs);
    if (row.sense != Sense::kLe) v = std::max(v, row.rhs - act);
    worst = std::max(worst, v / scale);
  }
  return worst;
}

/// What a differential run saw, so a test can insist it exercised the
/// warm path and the verdicts it is about.
struct Tally {
  int solves = 0;
  int warm = 0;  // finished without falling back to the cold path
  int optimal = 0;
  int infeasible = 0;
};

/// Re-solves `b` warm from `start` in `scratch` (the same object for an
/// in-place re-solve) and checks it against a cold solve.
LpResult expect_agree(const Model& m, const SimplexSolver& lp,
                      const LpState& start, LpState& scratch, const Bounds& b,
                      Tally& tally, const std::string& what) {
  const LpResult cold = lp.solve_with_bounds(b.lb, b.ub);
  const LpResult warm = lp.resolve(start, b.lb, b.ub, scratch);
  ++tally.solves;
  if (!warm.warm_fallback) ++tally.warm;
  EXPECT_EQ(warm.status, cold.status) << what;
  if (warm.status != cold.status) return cold;
  if (cold.status == LpStatus::kInfeasible) ++tally.infeasible;
  if (cold.status != LpStatus::kOptimal) return cold;
  ++tally.optimal;
  EXPECT_NEAR(warm.objective, cold.objective,
              kRelTol * std::max(1.0, std::abs(cold.objective)))
      << what;
  EXPECT_LE(violation(m, b, warm.x), kFeasTol) << what;
  return cold;
}

/// One branching step on `x`: a random fractional integer variable goes
/// to its floor or ceiling side; with none fractional, a random unfixed
/// integer variable is tightened the same way. False when nothing is left
/// to branch on.
bool branch(const Model& m, const std::vector<double>& x, Bounds& b,
            support::Rng& rng) {
  std::vector<int> frac, open;
  for (int j = 0; j < m.num_vars(); ++j) {
    if (m.var(j).type == VarType::kContinuous) continue;
    const auto u = static_cast<std::size_t>(j);
    if (b.lb[u] == b.ub[u]) continue;
    open.push_back(j);
    if (std::abs(x[u] - std::round(x[u])) > 1e-6) frac.push_back(j);
  }
  const std::vector<int>& pool = frac.empty() ? open : frac;
  if (pool.empty()) return false;
  const auto j = static_cast<std::size_t>(
      pool[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(pool.size()) - 1))]);
  const double floor = std::floor(std::clamp(x[j], b.lb[j], b.ub[j]));
  if (rng.chance(0.5)) {
    b.ub[j] = std::max(b.lb[j], floor);
  } else {
    b.lb[j] = std::min(b.ub[j], floor + 1.0);
  }
  return true;
}

/// Random dives from the root of `m`: `dives` walks of `depth` branching
/// steps, each step checked warm from the root copy and in place along the
/// chain. A dive ends at an infeasible node.
Tally dive(const Model& m, int dives, int depth, std::uint64_t seed,
           const std::string& what) {
  const SimplexSolver lp(m);
  const Bounds root_bounds = model_bounds(m);
  LpState root;
  const LpResult r =
      lp.solve_with_bounds(root_bounds.lb, root_bounds.ub, &root);
  Tally tally;
  EXPECT_EQ(r.status, LpStatus::kOptimal) << what;
  if (r.status != LpStatus::kOptimal) return tally;
  EXPECT_TRUE(root.valid());
  support::Rng rng(seed);
  LpState copy;
  for (int d = 0; d < dives; ++d) {
    Bounds b = root_bounds;
    LpState chain = root;
    std::vector<double> x = r.x;
    for (int step = 0; step < depth; ++step) {
      if (!branch(m, x, b, rng)) break;
      const std::string at = what + " dive " + std::to_string(d) + " step " +
                             std::to_string(step);
      expect_agree(m, lp, root, copy, b, tally, at + " (root copy)");
      const LpResult cold =
          expect_agree(m, lp, chain, chain, b, tally, at + " (chained)");
      if (cold.status != LpStatus::kOptimal) break;
      x = cold.x;
    }
  }
  return tally;
}

/// Strongly-correlated knapsack plus a few random packing rows.
Model knapsack_with_rows(int n, std::uint64_t seed) {
  support::Rng rng(seed);
  Model model;
  LinExpr weight, profit;
  double total = 0.0;
  std::vector<Var> x;
  for (int i = 0; i < n; ++i) {
    const double w = static_cast<double>(rng.uniform_int(1, 40));
    x.push_back(model.add_binary("x" + std::to_string(i)));
    weight += w * x.back();
    profit += (w + 5.0) * x.back();
    total += w;
  }
  model.add_constraint(weight, Sense::kLe, std::floor(total / 2.0), "cap");
  for (int r = 0; r < 4; ++r) {
    LinExpr row;
    for (int i = 0; i < n; ++i) {
      if (rng.chance(0.3)) row += x[static_cast<std::size_t>(i)];
    }
    model.add_constraint(row, Sense::kLe, 3.0, "pack" + std::to_string(r));
  }
  model.set_objective(profit, ObjSense::kMaximize);
  return model;
}

/// Covering instance: every random subset needs two of its members (often
/// all of them), so fixing members at zero soon makes a node infeasible.
Model covering(int n, std::uint64_t seed) {
  support::Rng rng(seed);
  Model model;
  std::vector<Var> x;
  LinExpr cost;
  for (int i = 0; i < n; ++i) {
    x.push_back(model.add_binary("x" + std::to_string(i)));
    cost += static_cast<double>(rng.uniform_int(1, 9)) * x.back();
  }
  for (int r = 0; r < n / 2; ++r) {
    LinExpr row;
    int members = 0;
    for (int i = 0; i < n; ++i) {
      if (rng.chance(0.15)) {
        row += x[static_cast<std::size_t>(i)];
        ++members;
      }
    }
    if (members >= 2) {
      model.add_constraint(row, Sense::kGe, 2.0, "cover" + std::to_string(r));
    }
  }
  model.set_objective(cost, ObjSense::kMinimize);
  return model;
}

/// The WATERS MILP of the paper's case study (alpha = 0.2) for `objective`,
/// as built before any presolve cut or lazy row.
Model waters_model(let::MilpObjective objective) {
  auto app = waters::make_waters_app();
  const auto sens = analysis::acquisition_deadlines(*app, 0.2);
  EXPECT_TRUE(sens.feasible);
  analysis::apply_acquisition_deadlines(*app, sens.gamma);
  const let::LetComms comms(*app);
  let::MilpSchedulerOptions o;
  o.objective = objective;
  const let::MilpScheduler scheduler(comms, o);
  return scheduler.model();
}

TEST(SimplexWarm, KnapsackDivesMatchCold) {
  Tally total;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Model m = knapsack_with_rows(24, seed);
    const Tally t = dive(m, 6, 10, seed, "knapsack " + std::to_string(seed));
    total.solves += t.solves;
    total.warm += t.warm;
    total.optimal += t.optimal;
  }
  EXPECT_GT(total.optimal, 100);
  EXPECT_EQ(total.warm, total.solves);  // tiny LPs never need the fallback
}

TEST(SimplexWarm, InfeasibleChildrenAgree) {
  // Dives that fix a random free item at 0 until the cover breaks.
  Tally t;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Model m = covering(20, seed);
    const SimplexSolver lp(m);
    const Bounds root_bounds = model_bounds(m);
    LpState root, copy;
    ASSERT_EQ(
        lp.solve_with_bounds(root_bounds.lb, root_bounds.ub, &root).status,
        LpStatus::kOptimal);
    support::Rng rng(seed);
    for (int d = 0; d < 6; ++d) {
      Bounds b = root_bounds;
      LpState chain = root;
      for (int step = 0; step < 20; ++step) {
        const auto j = static_cast<std::size_t>(rng.uniform_int(0, 19));
        if (b.ub[j] == 0.0) continue;
        b.ub[j] = 0.0;
        const std::string what = "covering " + std::to_string(seed) +
                                 " dive " + std::to_string(d);
        expect_agree(m, lp, root, copy, b, t, what + " (root copy)");
        if (expect_agree(m, lp, chain, chain, b, t, what + " (chained)")
                .status != LpStatus::kOptimal) {
          break;
        }
      }
    }
  }
  EXPECT_GE(t.infeasible, 40);
  EXPECT_GT(t.optimal, 100);
  EXPECT_EQ(t.warm, t.solves);
}

TEST(SimplexWarm, InfeasibleVerdictFromTightBox) {
  // x + y >= 1.5 over the unit box: the root is feasible; fixing x at 0
  // leaves y >= 1.5 with y <= 1, which the warm dual must report.
  Model m;
  const Var x = m.add_continuous(0, 1, "x");
  const Var y = m.add_continuous(0, 1, "y");
  m.add_constraint(x + y, Sense::kGe, 1.5, "need");
  m.set_objective(x + 2.0 * y, ObjSense::kMinimize);
  const SimplexSolver lp(m);
  Bounds b = model_bounds(m);
  LpState root, scratch;
  ASSERT_EQ(lp.solve_with_bounds(b.lb, b.ub, &root).status, LpStatus::kOptimal);
  b.ub[0] = 0.0;
  Tally t;
  expect_agree(m, lp, root, scratch, b, t, "x fixed at 0");
  EXPECT_EQ(t.infeasible, 1);
  EXPECT_EQ(t.warm, 1);
}

/// Beale's classic cycling LP (see simplex_degen_test.cpp).
Model beale_lp() {
  Model m;
  const Var x1 = m.add_continuous(0, kInfinity, "x1");
  const Var x2 = m.add_continuous(0, kInfinity, "x2");
  const Var x3 = m.add_continuous(0, kInfinity, "x3");
  const Var x4 = m.add_continuous(0, kInfinity, "x4");
  m.add_constraint(0.25 * x1 - 60.0 * x2 - 0.04 * x3 + 9.0 * x4, Sense::kLe,
                   0.0, "r1");
  m.add_constraint(0.5 * x1 - 90.0 * x2 - 0.02 * x3 + 3.0 * x4, Sense::kLe,
                   0.0, "r2");
  m.add_constraint(LinExpr(x3), Sense::kLe, 1.0, "r3");
  m.set_objective(-0.75 * x1 + 150.0 * x2 - 0.02 * x3 + 6.0 * x4,
                  ObjSense::kMinimize);
  return m;
}

TEST(SimplexWarm, BealeCyclingLp) {
  for (const long streak : {400L, 0L}) {  // 0: Bland from the first stall
    SimplexOptions opt;
    opt.degen_streak_limit = streak;
    const Model m = beale_lp();
    const SimplexSolver lp(m, opt);
    const Bounds root_bounds = model_bounds(m);
    LpState root, scratch;
    ASSERT_EQ(
        lp.solve_with_bounds(root_bounds.lb, root_bounds.ub, &root).status,
        LpStatus::kOptimal);
    Tally t;
    for (int j = 0; j < 4; ++j) {
      for (const double cap : {0.0, 0.01, 0.02, 0.5}) {
        Bounds b = root_bounds;
        b.ub[static_cast<std::size_t>(j)] = cap;
        expect_agree(m, lp, root, scratch, b, t,
                     "streak " + std::to_string(streak) + " x" +
                         std::to_string(j + 1) + " <= " + std::to_string(cap));
        b.lb[static_cast<std::size_t>(j)] = cap;  // fixed at cap
        expect_agree(m, lp, root, scratch, b, t,
                     "streak " + std::to_string(streak) + " x" +
                         std::to_string(j + 1) + " = " + std::to_string(cap));
      }
    }
    EXPECT_EQ(t.solves, 32);
    EXPECT_EQ(t.warm, t.solves);
  }
}

TEST(SimplexWarm, AppendedRowsAndColumns) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Model m = knapsack_with_rows(20, seed);
    const SimplexSolver lp(m);
    const Bounds root_bounds = model_bounds(m);
    LpState root;
    const LpResult r =
      lp.solve_with_bounds(root_bounds.lb, root_bounds.ub, &root);
    ASSERT_EQ(r.status, LpStatus::kOptimal);
    // Lazy-style additions: a witness column z <= x0, z <= x1 with a cost,
    // and conflict rows among the root's largest items.
    const Var z = m.add_continuous(0.0, 1.0, "z");
    m.add_constraint(LinExpr(z) - LinExpr(Var{0}), Sense::kLe, 0.0, "z0");
    m.add_constraint(LinExpr(z) - LinExpr(Var{1}), Sense::kLe, 0.0, "z1");
    LinExpr obj = m.objective();
    m.set_objective(obj + 3.0 * z, ObjSense::kMaximize);
    for (int i = 0; i + 1 < 20; i += 3) {
      m.add_constraint(LinExpr(Var{i}) + LinExpr(Var{i + 1}), Sense::kLe, 1.0,
                       "pair" + std::to_string(i));
    }
    lp.extend(root);
    EXPECT_EQ(root.rows(), m.num_constraints());
    EXPECT_EQ(root.cols(), m.num_vars());
    Bounds b = model_bounds(m);
    LpState chain = root, copy;
    support::Rng rng(seed);
    Tally t;
    const std::string what = "appended, seed " + std::to_string(seed);
    LpResult cold = expect_agree(m, lp, root, copy, b, t, what + " root");
    for (int step = 0; step < 8 && cold.status == LpStatus::kOptimal; ++step) {
      if (!branch(m, cold.x, b, rng)) break;
      expect_agree(m, lp, root, copy, b, t, what + " (root copy)");
      cold = expect_agree(m, lp, chain, chain, b, t, what + " (chained)");
    }
    EXPECT_GT(t.optimal, 0);
  }
}

class SimplexWarmWaters
    : public ::testing::TestWithParam<let::MilpObjective> {};

TEST_P(SimplexWarmWaters, DivesMatchCold) {
  const Model m = waters_model(GetParam());
  const Tally t = dive(m, 2, 4, 11, "waters");
  EXPECT_GT(t.optimal, 0);
  // A run whose every solve fell back to the cold path would check
  // nothing of the dual simplex.
  EXPECT_GE(t.warm, 2);
}

TEST_P(SimplexWarmWaters, AppendedRowsMatchCold) {
  Model m = waters_model(GetParam());
  const SimplexSolver lp(m);
  const Bounds root_bounds = model_bounds(m);
  LpState root;
  const LpResult r =
      lp.solve_with_bounds(root_bounds.lb, root_bounds.ub, &root);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  // Conflict rows between consecutive fractional binaries, and one fresh
  // witness column bounded by two of them, as lazy separation appends.
  std::vector<int> frac;
  for (int j = 0; j < m.num_vars(); ++j) {
    const double v = r.x[static_cast<std::size_t>(j)];
    if (m.var(j).type == VarType::kBinary && v > 1e-6 && v < 1.0 - 1e-6) {
      frac.push_back(j);
    }
  }
  ASSERT_GE(frac.size(), 2u);
  for (std::size_t i = 0; i + 1 < frac.size() && i < 12; i += 2) {
    m.add_constraint(LinExpr(Var{frac[i]}) + LinExpr(Var{frac[i + 1]}),
                     Sense::kLe, 1.0, "conflict" + std::to_string(i));
  }
  const Var w = m.add_continuous(0.0, 1.0, "witness");
  m.add_constraint(LinExpr(w) - LinExpr(Var{frac[0]}), Sense::kLe, 0.0, "w0");
  m.add_constraint(LinExpr(w) - LinExpr(Var{frac[1]}), Sense::kLe, 0.0, "w1");
  lp.extend(root);
  LpState scratch;
  Tally t;
  expect_agree(m, lp, root, scratch, model_bounds(m), t, "waters appended");
  EXPECT_EQ(t.solves, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Objectives, SimplexWarmWaters,
    ::testing::Values(let::MilpObjective::kNone,
                      let::MilpObjective::kMinLatencyRatio,
                      let::MilpObjective::kMinTransfers),
    [](const ::testing::TestParamInfo<let::MilpObjective>& info) {
      switch (info.param) {
        case let::MilpObjective::kNone:
          return std::string("NoObj");
        case let::MilpObjective::kMinLatencyRatio:
          return std::string("ObjDel");
        default:
          return std::string("ObjDmat");
      }
    });

}  // namespace
}  // namespace letdma::milp
