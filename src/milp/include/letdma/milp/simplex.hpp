// Bounded-variable simplex for LP relaxations.
//
// The solver works on the computational standard form
//
//   min c'x   s.t.  A x + s = b,   l <= (x, s) <= u
//
// where one slack `s_i` per row carries the row sense in its bounds
// (<=: s in [0, inf),  >=: s in (-inf, 0],  =: s fixed at 0).
//
// The tableau is kept in condensed (Tucker) form: one dense row per basic
// variable, one column per *nonbasic* variable. Basic columns are unit
// vectors and are not stored. A pivot updates only the nonzeros of the
// pivot row, so its cost is (rows touching the entering column) x (pivot
// row nonzeros) rather than rows x columns.
//
// Two solve paths share that tableau:
//
//  * Cold: two-phase primal simplex from a slack basis. Rows whose slack
//    would violate its bounds get an artificial variable, and a phase-1
//    objective drives the artificials to zero before phase 2 optimizes the
//    real objective. Dantzig pricing with a Bland fallback guards against
//    cycling. An optimal cold solve can hand its final tableau out as an
//    LpState.
//
//  * Warm: `resolve` copies an optimal LpState, applies tighter variable
//    bounds (which keeps the basis dual feasible) and restores primal
//    feasibility with a bounded dual simplex: dual steepest-edge row
//    choice, a bound-flipping ratio test with a Harris tolerance, a small
//    reproducible cost perturbation against dual degeneracy, and a Bland
//    fallback on long degenerate streaks. It ends with a primal clean-up
//    pass under the true costs and the cold path's optimality test. An
//    infeasibility verdict is re-checked from the model rows before it is
//    reported. When the dual exceeds its pivot budget, or a check fails,
//    the solve falls back to the cold path and says so in
//    LpResult::warm_fallback.
//
// Branch and bound (solver.hpp) keeps the root's optimal LpState and
// re-solves every other node warm, from a copy of it or, when plunging,
// in place from the state left for the node's parent; `extend` appends
// the columns and rows that lazy separation adds to the model.
#pragma once

#include <memory>
#include <vector>

#include "letdma/milp/model.hpp"

namespace letdma::milp {

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterLimit };

struct LpResult {
  LpStatus status = LpStatus::kIterLimit;
  /// Objective in the *model's* sense (a maximization model reports the
  /// maximum here).
  double objective = 0.0;
  /// Values of the structural variables (size = model.num_vars()).
  std::vector<double> x;
  /// Pivots of every path this solve ran (warm dual, clean-up, and the
  /// cold solve after a fallback).
  long iterations = 0;
  /// Pivots that made no progress (step length ~0); long streaks of these
  /// are the precursor to cycling.
  long degenerate_pivots = 0;
  /// Whether the Bland anti-cycling rule was ever engaged on this solve.
  bool bland_used = false;
  /// A warm re-solve gave up and the result comes from the cold path.
  bool warm_fallback = false;
};

struct SimplexOptions {
  long max_iterations = 2'000'000;
  double feas_tol = 1e-7;   // bound/row feasibility tolerance
  double opt_tol = 1e-9;    // reduced-cost optimality tolerance
  double pivot_tol = 1e-9;  // minimum pivot magnitude
  /// Consecutive degenerate pivots tolerated under Dantzig pricing before
  /// falling back to Bland's rule (which provably cannot cycle). The
  /// fallback disengages after the next improving step.
  long degen_streak_limit = 400;
};

/// An optimal simplex basis with its condensed tableau, taken from one
/// model. Opaque; copying it copies the tableau. A default-constructed
/// state is empty (`valid()` is false).
class LpState {
 public:
  LpState();
  ~LpState();
  LpState(const LpState& other);
  LpState& operator=(const LpState& other);
  LpState(LpState&& other) noexcept;
  LpState& operator=(LpState&& other) noexcept;

  bool valid() const;
  /// Model rows and columns the state covers.
  int rows() const;
  int cols() const;

  struct Data;

 private:
  friend class SimplexSolver;
  std::unique_ptr<Data> data_;
};

/// Solves the LP relaxation of `model` (integrality dropped). Variable
/// bounds may be overridden per call, which is how branch & bound explores
/// nodes without copying the model.
class SimplexSolver {
 public:
  explicit SimplexSolver(const Model& model, SimplexOptions options = {});

  /// Solves with the model's own bounds.
  LpResult solve() const;

  /// Cold solve with overriding bounds (both vectors sized
  /// model.num_vars()). When `optimal` is non-null and the LP is solved to
  /// optimality, the final basis is stored there for later warm solves.
  LpResult solve_with_bounds(const std::vector<double>& lb,
                             const std::vector<double>& ub,
                             LpState* optimal = nullptr) const;

  /// Warm solve: copies `start` (an optimal state of this model under
  /// bounds no tighter than lb/ub) into `scratch`, applies lb/ub and runs
  /// the bounded dual simplex; `start` and `scratch` may be one object (a
  /// re-solve in place). Falls back to a cold solve when the dual cannot
  /// finish within its pivot budget; either way `scratch` ends holding the
  /// optimal state when the result is kOptimal. `start` must cover the
  /// model's current rows and columns (see extend).
  LpResult resolve(const LpState& start, const std::vector<double>& lb,
                   const std::vector<double>& ub, LpState& scratch) const;

  /// Brings `state` up to the model's current size: columns added since
  /// it was taken enter nonbasic at a bound, rows enter with their slack
  /// basic. The basis stays dual feasible when the new columns' costs
  /// allow it; otherwise later warm solves fall back.
  void extend(LpState& state) const;

 private:
  const Model& model_;
  SimplexOptions options_;
};

}  // namespace letdma::milp
