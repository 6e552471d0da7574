#include "letdma/milp/simplex.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "letdma/guard/faults.hpp"
#include "letdma/obs/obs.hpp"
#include "letdma/support/error.hpp"

namespace letdma::milp {

/// The whole simplex state. Variables are numbered structural columns
/// first (0..n-1), then one slack per row (n..n+m-1), then the phase-1
/// artificials. Per-variable arrays are indexed by that number.
struct LpState::Data {
  enum class Col : unsigned char { kBasic, kAtLower, kAtUpper, kFree };

  int m = 0;        // rows
  int n = 0;        // structural columns
  int ncols = 0;    // n + m
  int num_art = 0;  // artificials added by the cold start
  int total = 0;    // ncols + num_art
  int nb = 0;       // stored tableau columns (the nonbasic variables)
  /// Condensed tableau, m x nb row-major: row i reads
  ///   x_basis[i] + sum_k tab[i][k] * x_nonbasic[k] = beta[i].
  std::vector<double> tab;
  std::vector<double> beta;   // B^{-1} b, kept in lockstep with tab
  std::vector<int> basis;     // row -> basic variable
  std::vector<int> nonbasic;  // tableau column -> variable
  /// variable -> tableau column (>= 0), -(row + 1) when basic, or
  /// kDropped for an artificial retired out of the tableau.
  std::vector<int> where;
  std::vector<double> lb, ub, xval, cost, dcost;
  std::vector<Col> stat;
  /// Dual steepest-edge weights, ||row i of B^{-1}||^2 (empty while not
  /// tracked: a cold solve computes them once, for the state it keeps).
  std::vector<double> weight;
};

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kDropped = INT_MIN;

using Data = LpState::Data;
using ColStatus = Data::Col;

std::size_t sz(int i) { return static_cast<std::size_t>(i); }

/// Dual pivots a warm solve may spend before it gives up and re-solves
/// cold. On WATERS a child of a shallow node needs a few to a few tens;
/// a warm pivot on the dense optimal tableau costs about three cold ones
/// (which start from the sparse model rows), and a cold solve takes ~600,
/// so past ~200 the cold path is the cheaper way to finish.
constexpr long kWarmPivotBudget = 200;

/// Relative size of the dual cost perturbation (see perturb_costs).
constexpr double kPerturbation = 1e-7;

obs::Counter& degenerate_counter() {
  static obs::Counter c("milp.simplex.degenerate_pivots");
  return c;
}
obs::Counter& bland_counter() {
  static obs::Counter c("milp.simplex.bland_activations");
  return c;
}
obs::Counter& fallback_counter() {
  static obs::Counter c("milp.simplex.warm_fallbacks");
  return c;
}

/// Bounded-variable simplex over a condensed tableau. Operates on a Data
/// it does not own: a fresh one for a cold solve, a copied snapshot for a
/// warm one.
class Tableau {
 public:
  Tableau(const Model& model, const SimplexOptions& opt, Data& s)
      : model_(model), opt_(opt), s_(s) {}

  /// Two-phase primal simplex from a slack basis.
  LpStatus solve_cold(const std::vector<double>& lb,
                      const std::vector<double>& ub) {
    build(lb, ub);
    // Phase 1: drive artificials to zero (skipped when none are basic).
    if (s_.num_art > 0) {
      set_phase1_costs();
      const LpStatus st = primal(/*phase1=*/true, opt_.max_iterations);
      if (st == LpStatus::kIterLimit) return st;
      if (artificial_sum() > 1e-6) return LpStatus::kInfeasible;
      retire_artificials();
    }
    set_phase2_costs();
    return primal(/*phase1=*/false, opt_.max_iterations);
  }

  /// Bounded dual simplex from the copied optimal state, under bounds no
  /// looser than the state's. kIterLimit means "fall back to cold".
  LpStatus solve_warm(const std::vector<double>& lb,
                      const std::vector<double>& ub) {
    if (!apply_bounds(lb, ub) || !dual_feasible()) return LpStatus::kIterLimit;
    recompute_basics();
    perturb_costs();
    const LpStatus st = dual(kWarmPivotBudget);
    if (st != LpStatus::kOptimal) return st;
    // Clean-up under the true costs and the cold path's optimality test:
    // the perturbation and Harris steps may leave reduced costs a hair on
    // the wrong side.
    set_phase2_costs();
    recompute_basics();
    return primal(/*phase1=*/false, iterations_ + kWarmPivotBudget) ==
                   LpStatus::kOptimal
               ? LpStatus::kOptimal
               : LpStatus::kIterLimit;
  }

  /// Sets the bounds of slack `var` for model row `row` from its sense.
  void slack_bounds(int row, int var) {
    const Sense sense = model_.constraint(row).sense;
    s_.lb[sz(var)] = sense == Sense::kGe ? -kInf : 0.0;
    s_.ub[sz(var)] = sense == Sense::kLe ? kInf : 0.0;
  }

  bool is_slack(int v) const { return v >= s_.n && v < s_.ncols; }

  /// ||row i of B^{-1}||^2: its slack columns, plus 1 when row i's own
  /// slack is basic.
  double row_weight(int i) const {
    const double* row = s_.tab.data() + sz(i) * sz(s_.nb);
    double w = is_slack(s_.basis[sz(i)]) ? 1.0 : 0.0;
    for (int k = 0; k < s_.nb; ++k) {
      if (row[k] != 0.0 && is_slack(s_.nonbasic[sz(k)])) w += row[k] * row[k];
    }
    return w;
  }

  /// Prepares an optimal cold state for keeping: drops the retired
  /// artificials and computes the steepest-edge weights warm solves use.
  void keep() {
    compact();
    s_.weight.resize(sz(s_.m));
    for (int i = 0; i < s_.m; ++i) s_.weight[sz(i)] = row_weight(i);
  }

  LpResult finish(LpStatus st) {
    LpResult out;
    out.status = st;
    out.iterations = iterations_;
    out.degenerate_pivots = degenerate_pivots_;
    out.bland_used = bland_used_;
    if (degenerate_pivots_ > 0) degenerate_counter().add(degenerate_pivots_);
    if (bland_activations_ > 0) bland_counter().add(bland_activations_);
    if (st == LpStatus::kOptimal) {
      recompute_basics();
      out.x.assign(s_.xval.begin(), s_.xval.begin() + s_.n);
      out.objective = model_.objective().evaluate(out.x);
    }
    return out;
  }

  /// Puts nonbasic `j` at the bound that keeps its reduced cost dual
  /// feasible (either bound when that cost is ~0, preferring its current
  /// side). False when the bound it needs is infinite.
  bool place_nonbasic(int j) {
    Data& s = s_;
    const double l = s.lb[sz(j)];
    const double u = s.ub[sz(j)];
    const double d = s.dcost[sz(j)];
    const bool flat = std::abs(d) <= opt_.opt_tol;
    bool lower = flat ? s.stat[sz(j)] != ColStatus::kAtUpper : d > 0.0;
    if (l == u) lower = true;
    if (lower && l == -kInf && flat) lower = false;
    if (!lower && u == kInf && flat) lower = true;
    const double v = lower ? l : u;
    if (v == -kInf || v == kInf) {
      if (!flat) return false;
      s.stat[sz(j)] = ColStatus::kFree;
      s.xval[sz(j)] = 0.0;
      return true;
    }
    s.stat[sz(j)] = lower ? ColStatus::kAtLower : ColStatus::kAtUpper;
    s.xval[sz(j)] = v;
    return true;
  }

 private:
  /// Drops the retired artificials' columns (fixed at zero, they can
  /// never re-enter) so a kept state stores only columns that can move.
  void compact() {
    Data& s = s_;
    std::vector<int> keep;
    for (int k = 0; k < s.nb; ++k) {
      if (s.nonbasic[sz(k)] < s.ncols) keep.push_back(k);
    }
    const int nb = static_cast<int>(keep.size());
    if (nb == s.nb) return;
    std::vector<double> tab(sz(s.m) * sz(nb));
    for (int i = 0; i < s.m; ++i) {
      const double* from = s.tab.data() + sz(i) * sz(s.nb);
      double* to = tab.data() + sz(i) * sz(nb);
      for (int c = 0; c < nb; ++c) to[c] = from[keep[sz(c)]];
    }
    std::vector<int> nonbasic(sz(nb));
    for (int k = 0; k < s.nb; ++k) {
      const int v = s.nonbasic[sz(k)];
      if (v >= s.ncols) s.where[sz(v)] = kDropped;
    }
    for (int c = 0; c < nb; ++c) {
      nonbasic[sz(c)] = s.nonbasic[sz(keep[sz(c)])];
      s.where[sz(nonbasic[sz(c)])] = c;
    }
    s.tab = std::move(tab);
    s.nonbasic = std::move(nonbasic);
    s.nb = nb;
  }

  // --- construction ------------------------------------------------------

  void build(const std::vector<double>& lb_override,
             const std::vector<double>& ub_override) {
    Data& s = s_;
    s.m = model_.num_constraints();
    s.n = model_.num_vars();
    s.ncols = s.n + s.m;
    const int n = s.n;

    s.lb.assign(sz(s.ncols), 0.0);
    s.ub.assign(sz(s.ncols), kInf);
    std::copy(lb_override.begin(), lb_override.begin() + n, s.lb.begin());
    std::copy(ub_override.begin(), ub_override.begin() + n, s.ub.begin());
    for (int i = 0; i < s.m; ++i) slack_bounds(i, n + i);

    // Nonbasic starting point: finite bound nearest to zero, or 0 if free.
    s.xval.assign(sz(s.ncols), 0.0);
    s.stat.assign(sz(s.ncols), ColStatus::kAtLower);
    for (int j = 0; j < s.ncols; ++j) {
      if (s.lb[sz(j)] > -kInf) {
        s.xval[sz(j)] = s.lb[sz(j)];
      } else if (s.ub[sz(j)] < kInf) {
        s.xval[sz(j)] = s.ub[sz(j)];
        s.stat[sz(j)] = ColStatus::kAtUpper;
      } else {
        s.stat[sz(j)] = ColStatus::kFree;
      }
    }

    // Per row: the slack starts basic when its residual fits its bounds;
    // otherwise it starts nonbasic at the nearer bound and an artificial
    // of the residual's sign takes the row.
    s.basis.assign(sz(s.m), -1);
    std::vector<int> art_row;
    std::vector<double> sign(sz(s.m), 1.0);
    for (int i = 0; i < s.m; ++i) {
      const ConstraintInfo& row = model_.constraint(i);
      double r = row.rhs;
      for (const LinTerm& t : row.expr.terms()) {
        r -= t.coef * s.xval[sz(t.var.index)];
      }
      const int sl = n + i;
      const double lo = s.lb[sz(sl)];
      const double hi = s.ub[sz(sl)];
      s.xval[sz(sl)] = std::clamp(r, lo, hi);
      if (r >= lo - opt_.feas_tol && r <= hi + opt_.feas_tol) {
        s.basis[sz(i)] = sl;
        s.stat[sz(sl)] = ColStatus::kBasic;
      } else {
        s.stat[sz(sl)] = s.xval[sz(sl)] == lo ? ColStatus::kAtLower
                                              : ColStatus::kAtUpper;
        sign[sz(i)] = r - s.xval[sz(sl)] > 0 ? 1.0 : -1.0;
        art_row.push_back(i);
      }
    }
    s.num_art = static_cast<int>(art_row.size());
    s.total = s.ncols + s.num_art;
    s.lb.resize(sz(s.total), 0.0);
    s.ub.resize(sz(s.total), kInf);
    s.xval.resize(sz(s.total), 0.0);
    s.stat.resize(sz(s.total), ColStatus::kBasic);

    // Nonbasic columns: the structurals, then the displaced slacks.
    s.nb = n + s.num_art;
    s.nonbasic.resize(sz(s.nb));
    s.where.assign(sz(s.total), 0);
    for (int j = 0; j < n; ++j) {
      s.nonbasic[sz(j)] = j;
      s.where[sz(j)] = j;
    }
    for (int a = 0; a < s.num_art; ++a) {
      const int i = art_row[sz(a)];
      s.nonbasic[sz(n + a)] = n + i;
      s.where[sz(n + i)] = n + a;
      s.basis[sz(i)] = s.ncols + a;
    }
    for (int i = 0; i < s.m; ++i) s.where[sz(s.basis[sz(i)])] = -(i + 1);

    // Tableau rows: a slack row reads s_i + a_i x = b_i; an artificial row
    // sign*(a_i x + s_i) + art = sign*b_i (the initial basis is diagonal).
    s.tab.assign(sz(s.m) * sz(s.nb), 0.0);
    s.beta.resize(sz(s.m));
    for (int i = 0; i < s.m; ++i) {
      const ConstraintInfo& row = model_.constraint(i);
      const double k = sign[sz(i)];
      for (const LinTerm& t : row.expr.terms()) at(i, t.var.index) += t.coef;
      if (k < 0) {
        for (int j = 0; j < n; ++j) at(i, j) = -at(i, j);
      }
      if (s.basis[sz(i)] != n + i) at(i, s.where[sz(n + i)]) = k;
      s.beta[sz(i)] = k * row.rhs;
    }
    recompute_basics();
  }

  double& at(int i, int k) { return s_.tab[sz(i) * sz(s_.nb) + sz(k)]; }
  double at(int i, int k) const { return s_.tab[sz(i) * sz(s_.nb) + sz(k)]; }

  // --- invariant maintenance ---------------------------------------------

  /// Recomputes basic variable values exactly from beta and the nonbasic
  /// values: xB_i = beta_i - sum_k tab(i,k) * x_nonbasic[k]. Called
  /// periodically to wash out incremental drift.
  void recompute_basics() {
    Data& s = s_;
    for (int i = 0; i < s.m; ++i) {
      double v = s.beta[sz(i)];
      const double* row = s.tab.data() + sz(i) * sz(s.nb);
      for (int k = 0; k < s.nb; ++k) {
        if (row[k] != 0.0) v -= row[k] * s.xval[sz(s.nonbasic[sz(k)])];
      }
      s.xval[sz(s.basis[sz(i)])] = v;
    }
  }

  void set_phase1_costs() {
    s_.cost.assign(sz(s_.total), 0.0);
    std::fill(s_.cost.begin() + s_.ncols, s_.cost.end(), 1.0);
    refresh_reduced_costs();
  }

  void set_phase2_costs() {
    s_.cost.assign(sz(s_.total), 0.0);
    const double sign =
        model_.objective_sense() == ObjSense::kMinimize ? 1.0 : -1.0;
    for (const LinTerm& t : model_.objective().terms()) {
      s_.cost[sz(t.var.index)] += sign * t.coef;
    }
    refresh_reduced_costs();
  }

  void refresh_reduced_costs() {
    // d_N = c_N - c_B^T * tab (tab already equals B^{-1} A_N).
    Data& s = s_;
    s.dcost = s.cost;
    for (int i = 0; i < s.m; ++i) {
      const double cb = s.cost[sz(s.basis[sz(i)])];
      if (cb == 0.0) continue;
      const double* row = s.tab.data() + sz(i) * sz(s.nb);
      for (int k = 0; k < s.nb; ++k) {
        s.dcost[sz(s.nonbasic[sz(k)])] -= cb * row[k];
      }
    }
    for (int i = 0; i < s.m; ++i) s.dcost[sz(s.basis[sz(i)])] = 0.0;
  }

  double artificial_sum() const {
    double sum = 0.0;
    for (int j = s_.ncols; j < s_.total; ++j) sum += std::abs(s_.xval[sz(j)]);
    return sum;
  }

  /// After phase 1: pin artificials at zero and pivot basic ones out where
  /// possible; rows where that fails are redundant and keep a zero-fixed
  /// artificial as a placeholder basic variable.
  void retire_artificials() {
    Data& s = s_;
    for (int j = s.ncols; j < s.total; ++j) {
      s.lb[sz(j)] = 0.0;
      s.ub[sz(j)] = 0.0;
      if (std::abs(s.xval[sz(j)]) < opt_.feas_tol) s.xval[sz(j)] = 0.0;
    }
    for (int i = 0; i < s.m; ++i) {
      const int bj = s.basis[sz(i)];
      if (bj < s.ncols) continue;  // not artificial
      // Try to pivot the artificial out on any usable non-artificial column.
      int pivot_col = -1;
      double best = opt_.pivot_tol;
      for (int j = 0; j < s.ncols; ++j) {
        if (s.stat[sz(j)] == ColStatus::kBasic) continue;
        const double y = std::abs(at(i, s.where[sz(j)]));
        if (y > best) {
          best = y;
          pivot_col = j;
        }
      }
      if (pivot_col >= 0) {
        // Degenerate pivot: the artificial is at 0, so the entering column
        // enters at its current value; basic values are unchanged.
        s.stat[sz(bj)] = ColStatus::kAtLower;
        pivot(i, pivot_col, s.xval[sz(pivot_col)]);
      }
      // else: redundant row; artificial stays basic, fixed at 0.
    }
  }

  // --- primal simplex ------------------------------------------------------

  /// Primal iterations until optimal for the current costs, or until the
  /// iteration count reaches `limit`.
  LpStatus primal(bool phase1, long limit) {
    Data& s = s_;
    long degen_streak = 0;
    bool bland = false;
    for (;;) {
      if (iterations_ >= limit) return LpStatus::kIterLimit;
      periodic_refresh();

      // Pricing: pick an entering column with a violating reduced cost.
      int q = -1;
      double q_score = opt_.opt_tol;
      int q_dir = 0;
      for (int j = 0; j < s.total; ++j) {
        const ColStatus st = s.stat[sz(j)];
        if (st == ColStatus::kBasic) continue;
        if (s.lb[sz(j)] == s.ub[sz(j)]) continue;  // fixed
        const double d = s.dcost[sz(j)];
        int dir = 0;
        if (st == ColStatus::kAtLower && d < -opt_.opt_tol) dir = +1;
        else if (st == ColStatus::kAtUpper && d > opt_.opt_tol) dir = -1;
        else if (st == ColStatus::kFree && std::abs(d) > opt_.opt_tol)
          dir = d < 0 ? +1 : -1;
        if (dir == 0) continue;
        if (bland) {  // first eligible index
          q = j;
          q_dir = dir;
          break;
        }
        const double score = std::abs(d);
        if (score > q_score) {
          q_score = score;
          q = j;
          q_dir = dir;
        }
      }
      if (q < 0) return LpStatus::kOptimal;  // optimal for current phase
      const int kq = s.where[sz(q)];

      // Ratio test along direction q_dir for column q.
      double t_max = kInf;
      int leave_row = -1;
      double leave_bound = 0.0;  // bound hit by the leaving variable
      // Entering variable's own opposite bound allows a bound flip.
      const double range = s.ub[sz(q)] - s.lb[sz(q)];
      bool flip = false;
      if (range < kInf) {
        t_max = range;
        flip = true;
      }
      for (int i = 0; i < s.m; ++i) {
        const double y = at(i, kq);
        if (std::abs(y) <= opt_.pivot_tol) continue;
        const int bj = s.basis[sz(i)];
        const double v = s.xval[sz(bj)];
        const double rate = -static_cast<double>(q_dir) * y;
        double t_i = kInf;
        double bound = 0.0;
        if (rate > 0.0) {
          if (s.ub[sz(bj)] < kInf) {
            t_i = (s.ub[sz(bj)] - v) / rate;
            bound = s.ub[sz(bj)];
          }
        } else {
          if (s.lb[sz(bj)] > -kInf) {
            t_i = (s.lb[sz(bj)] - v) / rate;
            bound = s.lb[sz(bj)];
          }
        }
        if (t_i < -1e-9) t_i = 0.0;  // numerical: already past the bound
        const bool better =
            t_i < t_max - 1e-12 ||
            (t_i < t_max + 1e-12 && leave_row >= 0 &&
             std::abs(y) > std::abs(at(leave_row, kq)));
        if (better) {
          t_max = std::max(t_i, 0.0);
          leave_row = i;
          leave_bound = bound;
          flip = false;
        }
      }

      if (t_max == kInf) {
        return phase1 ? LpStatus::kInfeasible  // cannot happen: phase-1 obj
                                               // is bounded below by 0
                      : LpStatus::kUnbounded;
      }

      // Apply the step.
      shift(q, static_cast<double>(q_dir) * t_max);

      if (flip) {
        s.stat[sz(q)] = (q_dir > 0) ? ColStatus::kAtUpper : ColStatus::kAtLower;
        ++iterations_;
        continue;
      }

      // Pivot: q enters the basis at row leave_row; the old basic leaves
      // to the bound it hit.
      const int old_basic = s.basis[sz(leave_row)];
      s.xval[sz(old_basic)] = leave_bound;
      s.stat[sz(old_basic)] = (leave_bound == s.lb[sz(old_basic)])
                                  ? ColStatus::kAtLower
                                  : ColStatus::kAtUpper;
      pivot(leave_row, q, s.xval[sz(q)]);

      ++iterations_;
      track_degeneracy(t_max <= 1e-12, degen_streak, bland);
    }
  }

  /// Moves nonbasic `j` by `step`, carrying the basic variables along.
  void shift(int j, double step) {
    Data& s = s_;
    const int k = s.where[sz(j)];
    for (int i = 0; i < s.m; ++i) {
      const double y = at(i, k);
      if (y != 0.0) s.xval[sz(s.basis[sz(i)])] -= step * y;
    }
    s.xval[sz(j)] += step;
  }

  /// Fault poll plus a refresh of reduced costs and basic values every 512
  /// pivots, riding the same check so the pivot hot path pays for neither.
  void periodic_refresh() {
    if ((iterations_ & 0x1ff) != 0x1ff) return;
    guard::fault_point("simplex.pivot");
    refresh_reduced_costs();
    recompute_basics();
  }

  /// Degenerate-streak bookkeeping shared by both simplex loops: Bland's
  /// rule engages after degen_streak_limit degenerate pivots and
  /// disengages after the next improving one.
  void track_degeneracy(bool degenerate, long& streak, bool& bland) {
    if (!degenerate) {
      streak = 0;
      bland = false;
      return;
    }
    ++degenerate_pivots_;
    if (++streak > opt_.degen_streak_limit && !bland) {
      bland = true;
      bland_used_ = true;
      ++bland_activations_;
    }
  }

  /// Makes nonbasic `q` basic at `row`: the condensed update touches only
  /// the pivot row's nonzero columns, and the leaving variable takes over
  /// q's tableau column. Keeps beta and the reduced costs in lockstep. The
  /// caller has set the leaving variable's status and value.
  void pivot(int row, int q, double entering_value) {
    Data& s = s_;
    const int kq = s.where[sz(q)];
    const double p = at(row, kq);
    LETDMA_ENSURE(std::abs(p) > opt_.pivot_tol, "pivot on a ~zero element");
    const double inv = 1.0 / p;
    double* prow = s.tab.data() + sz(row) * sz(s.nb);
    nz_.clear();
    for (int k = 0; k < s.nb; ++k) {
      if (prow[k] == 0.0 || k == kq) continue;
      prow[k] *= inv;
      nz_.push_back(k);
    }
    prow[kq] = inv;
    // A dense pivot row updates faster as a plain (vectorized) sweep; the
    // zero entries leave their targets unchanged either way.
    const bool dense = nz_.size() * 3 > sz(s.nb);
    s.beta[sz(row)] *= inv;
    const double beta_r = s.beta[sz(row)];
    // Steepest-edge weights follow the row operation on B^{-1}, whose rows
    // are the slack columns: rho_i -= f * rho_r / p, so
    //   w_i += -2 f <rho_i, rho_r> / p + f^2 w_r / p^2.
    const bool weights = !s.weight.empty();
    double w_r = 0.0;
    double q_slack = 0.0;  // q's own slack column contributes f * p / p
    if (weights) {
      w_r = s.weight[sz(row)] * inv * inv;
      q_slack = is_slack(q) ? 1.0 : 0.0;
      nzs_.clear();
      for (const int k : nz_) {
        if (is_slack(s.nonbasic[sz(k)])) nzs_.push_back(k);
      }
    }
    for (int i = 0; i < s.m; ++i) {
      if (i == row) continue;
      double* irow = s.tab.data() + sz(i) * sz(s.nb);
      const double f = irow[kq];
      if (f == 0.0) continue;
      if (weights) {
        double dot = q_slack * f;
        for (const int k : nzs_) dot += irow[k] * prow[k];
        s.weight[sz(i)] =
            std::max(s.weight[sz(i)] - 2.0 * f * dot + f * f * w_r, 1e-12);
      }
      if (dense) {
        for (int k = 0; k < s.nb; ++k) irow[k] -= f * prow[k];
      } else {
        for (const int k : nz_) irow[k] -= f * prow[k];
      }
      irow[kq] = -f * inv;
      s.beta[sz(i)] -= f * beta_r;
    }
    if (weights) s.weight[sz(row)] = std::max(w_r, 1e-12);
    const int leaving = s.basis[sz(row)];
    const double dq = s.dcost[sz(q)];
    if (dq != 0.0) {
      for (const int k : nz_) s.dcost[sz(s.nonbasic[sz(k)])] -= dq * prow[k];
    }
    s.dcost[sz(leaving)] = -dq * inv;
    s.dcost[sz(q)] = 0.0;
    s.basis[sz(row)] = q;
    s.where[sz(q)] = -(row + 1);
    s.nonbasic[sz(kq)] = leaving;
    s.where[sz(leaving)] = kq;
    s.stat[sz(q)] = ColStatus::kBasic;
    s.xval[sz(q)] = entering_value;
  }

  // --- warm start and dual simplex -----------------------------------------

  /// Installs the node's structural bounds and moves every nonbasic
  /// structural to the bound its reduced cost asks for. False when that
  /// bound is infinite (the basis is then not dual feasible here).
  bool apply_bounds(const std::vector<double>& lb,
                    const std::vector<double>& ub) {
    for (int j = 0; j < s_.n; ++j) {
      s_.lb[sz(j)] = lb[sz(j)];
      s_.ub[sz(j)] = ub[sz(j)];
      if (s_.where[sz(j)] >= 0 && !place_nonbasic(j)) return false;
    }
    return true;
  }

  /// Every movable nonbasic variable's reduced cost has the sign its
  /// status needs (to a loose tolerance the primal clean-up absorbs).
  bool dual_feasible() const {
    constexpr double kTol = 1e-7;
    for (int k = 0; k < s_.nb; ++k) {
      const int j = s_.nonbasic[sz(k)];
      if (s_.lb[sz(j)] == s_.ub[sz(j)]) continue;
      const double d = s_.dcost[sz(j)];
      switch (s_.stat[sz(j)]) {
        case ColStatus::kAtLower:
          if (d < -kTol) return false;
          break;
        case ColStatus::kAtUpper:
          if (d > kTol) return false;
          break;
        default:
          if (std::abs(d) > kTol) return false;
      }
    }
    return true;
  }

  /// Shifts every movable nonbasic cost away from zero on its dual
  /// feasible side, by kPerturbation * (1 + |c_j|) times a fixed
  /// per-variable factor in [1, 2). Node LPs of the LET models are
  /// massively dual degenerate (most costs are 0): unperturbed, nearly
  /// every ratio is 0, the dual objective stalls and deep nodes exhaust
  /// the pivot budget far more often. The factor is a hash of the
  /// variable number, so re-solves stay reproducible. The clean-up pass
  /// restores the true costs.
  void perturb_costs() {
    for (int k = 0; k < s_.nb; ++k) {
      const int j = s_.nonbasic[sz(k)];
      if (s_.lb[sz(j)] == s_.ub[sz(j)]) continue;
      double side = 0.0;
      if (s_.stat[sz(j)] == ColStatus::kAtLower) side = 1.0;
      if (s_.stat[sz(j)] == ColStatus::kAtUpper) side = -1.0;
      std::uint32_t h = static_cast<std::uint32_t>(j) * 2654435761u;
      h ^= h >> 16;
      const double factor = 1.0 + static_cast<double>(h & 0xffff) / 65536.0;
      const double delta =
          side * kPerturbation * (1.0 + std::abs(s_.cost[sz(j)])) * factor;
      s_.cost[sz(j)] += delta;
      s_.dcost[sz(j)] += delta;
    }
  }

  struct Candidate {
    int j;          // nonbasic variable
    double abs_a;   // |pivot row entry|
    double ratio;   // dual step at which its reduced cost reaches zero
  };

  /// Dual iterations until primal feasible (kOptimal), a verified proof of
  /// infeasibility (kInfeasible), or `budget` pivots (kIterLimit).
  LpStatus dual(long budget) {
    Data& s = s_;
    const long limit = std::min(iterations_ + budget, opt_.max_iterations);
    long degen_streak = 0;
    bool bland = false;
    for (;;) {
      if (iterations_ >= limit) return LpStatus::kIterLimit;
      periodic_refresh();

      // Leaving row by dual steepest edge: the largest infeasibility^2
      // per unit of weight (under Bland: the lowest-numbered variable
      // outside its bounds).
      int r = -1;
      double worst = 0.0;
      for (int i = 0; i < s.m; ++i) {
        const int b = s.basis[sz(i)];
        const double v = s.xval[sz(b)];
        const double infeas = std::max(s.lb[sz(b)] - v, v - s.ub[sz(b)]);
        if (infeas <= opt_.feas_tol) continue;
        const double score = infeas * infeas / s.weight[sz(i)];
        if (bland ? (r < 0 || b < s.basis[sz(r)]) : score > worst) {
          worst = score;
          r = i;
        }
      }
      if (r < 0) return LpStatus::kOptimal;
      const int p = s.basis[sz(r)];
      const bool up = s.xval[sz(p)] < s.lb[sz(p)];  // p must rise to lb
      const double target = up ? s.lb[sz(p)] : s.ub[sz(p)];
      const double dir = up ? 1.0 : -1.0;

      // Candidates: nonbasic variables whose move off their bound pushes
      // x_p toward its bound (x_p falls by a per unit rise of x_j).
      cand_.clear();
      const double* prow = s.tab.data() + sz(r) * sz(s.nb);
      for (int k = 0; k < s.nb; ++k) {
        const double a = prow[k];
        if (std::abs(a) <= opt_.pivot_tol) continue;
        const int j = s.nonbasic[sz(k)];
        if (s.lb[sz(j)] == s.ub[sz(j)]) continue;
        const double d = s.dcost[sz(j)];
        double slack = 0.0;  // reduced cost left before it changes sign
        switch (s.stat[sz(j)]) {
          case ColStatus::kAtLower:
            if (a * dir >= 0.0) continue;
            slack = std::max(d, 0.0);
            break;
          case ColStatus::kAtUpper:
            if (a * dir <= 0.0) continue;
            slack = std::max(-d, 0.0);
            break;
          default:
            break;
        }
        cand_.push_back({j, std::abs(a), slack / std::abs(a)});
      }
      if (cand_.empty()) {
        return proves_infeasible(r) ? LpStatus::kInfeasible
                                    : LpStatus::kIterLimit;
      }

      const std::size_t e =
          bland ? bland_entering() : long_step_entering(r, up);
      if (e == cand_.size()) return LpStatus::kInfeasible;
      const int q = cand_[e].j;
      const double a_q = prow[s.where[sz(q)]];
      // A Harris step may leave the entering reduced cost a hair on the
      // wrong side; stepping on it would push every other reduced cost the
      // wrong way. Shift its cost so it is exactly zero instead (the
      // clean-up restores the true costs).
      const double d_q = s.dcost[sz(q)];
      if ((s.stat[sz(q)] == ColStatus::kAtLower) ? d_q < 0.0
          : (s.stat[sz(q)] == ColStatus::kAtUpper) ? d_q > 0.0
                                                   : d_q != 0.0) {
        s.cost[sz(q)] -= d_q;
        s.dcost[sz(q)] = 0.0;
      }
      // x_q moves until x_p sits exactly on its violated bound.
      shift(q, (s.xval[sz(p)] - target) / a_q);
      const bool degenerate = std::abs(s.dcost[sz(q)]) <= 1e-12;
      s.xval[sz(p)] = target;
      s.stat[sz(p)] = up ? ColStatus::kAtLower : ColStatus::kAtUpper;
      pivot(r, q, s.xval[sz(q)]);
      ++iterations_;
      track_degeneracy(degenerate, degen_streak, bland);
    }
  }

  /// Textbook ratio test for Bland mode: the smallest ratio, ties to the
  /// lowest-numbered variable; no bound flips.
  std::size_t bland_entering() const {
    std::size_t best = 0;
    for (std::size_t c = 1; c < cand_.size(); ++c) {
      const Candidate& x = cand_[c];
      const Candidate& b = cand_[best];
      if (x.ratio < b.ratio - 1e-12 ||
          (x.ratio <= b.ratio + 1e-12 && x.j < b.j)) {
        best = c;
      }
    }
    return best;
  }

  /// Bound-flipping ratio test with a Harris tolerance. Breakpoints are
  /// passed in ratio order while the boxed variable there can flip to its
  /// other bound and x_p is still short of its bound; among the
  /// breakpoints within the Harris tolerance of the stopping one, the
  /// largest pivot enters. Returns cand_.size() when flipping every
  /// candidate leaves x_p infeasible and the model rows confirm it.
  std::size_t long_step_entering(int r, bool up) {
    Data& s = s_;
    std::sort(cand_.begin(), cand_.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.ratio != b.ratio ? a.ratio < b.ratio : a.j < b.j;
              });
    const int p = s.basis[sz(r)];
    double slope = up ? s.lb[sz(p)] - s.xval[sz(p)]
                      : s.xval[sz(p)] - s.ub[sz(p)];
    std::size_t i = 0;
    for (; i < cand_.size(); ++i) {
      const Candidate& c = cand_[i];
      const double range = s.ub[sz(c.j)] - s.lb[sz(c.j)];
      if (range == kInf) break;
      const double after = slope - c.abs_a * range;
      if (after <= opt_.feas_tol) break;
      slope = after;
    }
    if (i == cand_.size()) {
      if (proves_infeasible(r)) return cand_.size();
      i = cand_.size() - 1;  // unconfirmed: take the last as a plain pivot
    }
    // Harris pass: widest step within tolerance, then the largest pivot.
    double t_max = kInf;
    for (std::size_t c = i; c < cand_.size() && cand_[c].ratio <= t_max; ++c) {
      t_max = std::min(t_max, cand_[c].ratio + opt_.opt_tol / cand_[c].abs_a);
    }
    std::size_t best = i;
    for (std::size_t c = i + 1; c < cand_.size() && cand_[c].ratio <= t_max;
         ++c) {
      if (cand_[c].abs_a > cand_[best].abs_a) best = c;
    }
    // The breakpoints passed flip to their other bound.
    for (std::size_t c = 0; c < i; ++c) {
      const int j = cand_[c].j;
      const bool to_upper = s.stat[sz(j)] == ColStatus::kAtLower;
      shift(j, to_upper ? s.ub[sz(j)] - s.lb[sz(j)]
                        : s.lb[sz(j)] - s.ub[sz(j)]);
      s.xval[sz(j)] = to_upper ? s.ub[sz(j)] : s.lb[sz(j)];
      s.stat[sz(j)] = to_upper ? ColStatus::kAtUpper : ColStatus::kAtLower;
    }
    return best;
  }

  /// Re-derives tableau row r from the model rows (y = row r of B^{-1},
  /// read off the slack columns) and checks that y'(Ax + s) = y'b cannot
  /// hold for any point inside the bounds. Independent of drift in the
  /// row's tableau entries, so a warm "infeasible" verdict rests on the
  /// model itself; when the check cannot confirm, the caller falls back.
  bool proves_infeasible(int r) {
    const Data& s = s_;
    coef_.assign(sz(s.n), 0.0);
    double rhs = 0.0;
    double lo = 0.0, hi = 0.0;  // range of y'(Ax + s) over the bounds
    double mag = 0.0;           // size of the summed terms, for rounding
    double scale = 1.0;         // largest |y_i a_ij|
    const auto add_range = [&](double c, double l, double u) {
      lo += c > 0 ? c * l : c * u;
      hi += c > 0 ? c * u : c * l;
      if (std::isfinite(l)) mag += std::abs(c * l);
      if (std::isfinite(u)) mag += std::abs(c * u);
    };
    ys_.clear();
    for (int i = 0; i < s.m; ++i) {
      const int w = s.where[sz(s.n + i)];
      const double y = w >= 0 ? at(r, w) : (w == -(r + 1) ? 1.0 : 0.0);
      if (y == 0.0) continue;
      ys_.emplace_back(i, y);
      const ConstraintInfo& row = model_.constraint(i);
      rhs += y * row.rhs;
      mag += std::abs(y * row.rhs);
      for (const LinTerm& t : row.expr.terms()) {
        coef_[sz(t.var.index)] += y * t.coef;
        scale = std::max(scale, std::abs(y * t.coef));
      }
    }
    // Cancellation leaves ~1e-16 * scale where a coefficient is really 0;
    // on an unbounded variable that noise alone would void the proof.
    const double eps = 1e-9 * scale;
    for (const auto& [i, y] : ys_) {
      if (std::abs(y) > eps) {
        add_range(y, s.lb[sz(s.n + i)], s.ub[sz(s.n + i)]);
      }
    }
    for (int j = 0; j < s.n; ++j) {
      const double c = coef_[sz(j)];
      if (std::abs(c) > eps) add_range(c, s.lb[sz(j)], s.ub[sz(j)]);
    }
    const double margin = opt_.feas_tol + 1e-9 * mag;
    return rhs < lo - margin || rhs > hi + margin;
  }

  const Model& model_;
  const SimplexOptions& opt_;
  Data& s_;
  std::vector<int> nz_;           // pivot-row nonzero columns (scratch)
  std::vector<int> nzs_;          // ... those holding slacks (scratch)
  std::vector<Candidate> cand_;   // dual ratio-test candidates (scratch)
  std::vector<double> coef_;      // infeasibility check (scratch)
  std::vector<std::pair<int, double>> ys_;
  long iterations_ = 0;
  long degenerate_pivots_ = 0;
  long bland_activations_ = 0;
  bool bland_used_ = false;
};

bool bounds_cross(const std::vector<double>& lb,
                  const std::vector<double>& ub) {
  for (std::size_t j = 0; j < lb.size(); ++j) {
    if (lb[j] > ub[j]) return true;
  }
  return false;
}

LpResult infeasible_result() {
  LpResult out;
  out.status = LpStatus::kInfeasible;
  return out;
}

}  // namespace

LpState::LpState() = default;
LpState::~LpState() = default;
LpState::LpState(const LpState& other)
    : data_(other.data_ ? std::make_unique<Data>(*other.data_) : nullptr) {}
LpState& LpState::operator=(const LpState& other) {
  if (this == &other) return *this;
  if (!other.data_) {
    data_.reset();
  } else if (data_) {
    *data_ = *other.data_;  // reuses this state's buffers
  } else {
    data_ = std::make_unique<Data>(*other.data_);
  }
  return *this;
}
LpState::LpState(LpState&& other) noexcept = default;
LpState& LpState::operator=(LpState&& other) noexcept = default;
bool LpState::valid() const { return data_ != nullptr; }
int LpState::rows() const { return data_ ? data_->m : 0; }
int LpState::cols() const { return data_ ? data_->n : 0; }

SimplexSolver::SimplexSolver(const Model& model, SimplexOptions options)
    : model_(model), options_(options) {}

LpResult SimplexSolver::solve() const {
  std::vector<double> lb(sz(model_.num_vars()));
  std::vector<double> ub(sz(model_.num_vars()));
  for (int j = 0; j < model_.num_vars(); ++j) {
    lb[sz(j)] = model_.var(j).lb;
    ub[sz(j)] = model_.var(j).ub;
  }
  return solve_with_bounds(lb, ub);
}

LpResult SimplexSolver::solve_with_bounds(const std::vector<double>& lb,
                                          const std::vector<double>& ub,
                                          LpState* optimal) const {
  LETDMA_ENSURE(static_cast<int>(lb.size()) == model_.num_vars() &&
                    static_cast<int>(ub.size()) == model_.num_vars(),
                "bound override vectors must match the variable count");
  if (bounds_cross(lb, ub)) return infeasible_result();
  auto data = std::make_unique<LpState::Data>();
  Tableau t(model_, options_, *data);
  const LpResult out = t.finish(t.solve_cold(lb, ub));
  if (optimal != nullptr && out.status == LpStatus::kOptimal) {
    t.keep();
    optimal->data_ = std::move(data);
  }
  return out;
}

LpResult SimplexSolver::resolve(const LpState& start,
                                const std::vector<double>& lb,
                                const std::vector<double>& ub,
                                LpState& scratch) const {
  LETDMA_ENSURE(start.rows() == model_.num_constraints() &&
                    start.cols() == model_.num_vars(),
                "warm start does not cover the model");
  LETDMA_ENSURE(static_cast<int>(lb.size()) == model_.num_vars() &&
                    static_cast<int>(ub.size()) == model_.num_vars(),
                "bound override vectors must match the variable count");
  if (bounds_cross(lb, ub)) return infeasible_result();
  scratch = start;  // a no-op when re-solving in place
  Tableau t(model_, options_, *scratch.data_);
  const LpStatus st = t.solve_warm(lb, ub);
  if (st != LpStatus::kIterLimit) return t.finish(st);
  const LpResult warm = t.finish(st);
  fallback_counter().add();
  // The cold solve leaves its optimal tableau in `scratch`, so a caller
  // that chains re-solves starts the next one from it.
  LpResult out = solve_with_bounds(lb, ub, &scratch);
  out.iterations += warm.iterations;
  out.degenerate_pivots += warm.degenerate_pivots;
  out.bland_used = out.bland_used || warm.bland_used;
  out.warm_fallback = true;
  return out;
}

void SimplexSolver::extend(LpState& state) const {
  LETDMA_ENSURE(state.valid(), "extend needs a solved state");
  Data& s = *state.data_;
  const int n = model_.num_vars();
  const int m = model_.num_constraints();
  if (n == s.n && m == s.m) return;
  LETDMA_ENSURE(n >= s.n && m >= s.m, "the model shrank under its state");
  const int ncols = n + m;
  const int total = ncols + s.num_art;
  const int nb = s.nb + (n - s.n);
  // Renumber: structurals keep their numbers, slacks and artificials move
  // up past the new columns and rows.
  const auto renumber = [&](int v) {
    if (v < s.n) return v;
    return v < s.ncols ? v - s.n + n : v - s.ncols + ncols;
  };
  Data e;
  e.m = m;
  e.n = n;
  e.ncols = ncols;
  e.num_art = s.num_art;
  e.total = total;
  e.nb = nb;
  e.lb.assign(sz(total), 0.0);
  e.ub.assign(sz(total), 0.0);
  e.xval.assign(sz(total), 0.0);
  e.cost.assign(sz(total), 0.0);
  e.dcost.assign(sz(total), 0.0);
  e.stat.assign(sz(total), ColStatus::kBasic);
  e.where.assign(sz(total), 0);
  for (int v = 0; v < s.total; ++v) {
    const int w = renumber(v);
    e.lb[sz(w)] = s.lb[sz(v)];
    e.ub[sz(w)] = s.ub[sz(v)];
    e.xval[sz(w)] = s.xval[sz(v)];
    e.cost[sz(w)] = s.cost[sz(v)];
    e.dcost[sz(w)] = s.dcost[sz(v)];
    e.stat[sz(w)] = s.stat[sz(v)];
    e.where[sz(w)] = s.where[sz(v)];
  }
  e.basis.resize(sz(m));
  e.beta.resize(sz(m));
  for (int i = 0; i < s.m; ++i) {
    e.basis[sz(i)] = renumber(s.basis[sz(i)]);
    e.beta[sz(i)] = s.beta[sz(i)];
  }
  e.nonbasic.resize(sz(nb));
  for (int k = 0; k < s.nb; ++k) {
    e.nonbasic[sz(k)] = renumber(s.nonbasic[sz(k)]);
  }

  // New columns: zero in every old row (they did not exist), so their
  // reduced cost is their cost; they enter nonbasic at a bound.
  const double sign =
      model_.objective_sense() == ObjSense::kMinimize ? 1.0 : -1.0;
  for (const LinTerm& t : model_.objective().terms()) {
    if (t.var.index >= s.n) e.cost[sz(t.var.index)] += sign * t.coef;
  }
  for (int j = s.n; j < n; ++j) {
    const int k = s.nb + (j - s.n);
    e.nonbasic[sz(k)] = j;
    e.where[sz(j)] = k;
    e.lb[sz(j)] = model_.var(j).lb;
    e.ub[sz(j)] = model_.var(j).ub;
    e.dcost[sz(j)] = e.cost[sz(j)];
    e.stat[sz(j)] = ColStatus::kAtLower;
  }

  e.tab.assign(sz(m) * sz(nb), 0.0);
  for (int i = 0; i < s.m; ++i) {
    std::copy_n(s.tab.data() + sz(i) * sz(s.nb), s.nb,
                e.tab.data() + sz(i) * sz(nb));
  }
  Tableau t(model_, options_, e);
  for (int j = s.n; j < n; ++j) t.place_nonbasic(j);

  // New rows: the slack is basic; its tableau row is the model row with
  // every basic structural substituted by its own tableau row.
  for (int i = s.m; i < m; ++i) {
    const ConstraintInfo& row = model_.constraint(i);
    const int sl = n + i;
    t.slack_bounds(i, sl);
    e.stat[sz(sl)] = ColStatus::kBasic;
    e.basis[sz(i)] = sl;
    e.where[sz(sl)] = -(i + 1);
    double* trow = e.tab.data() + sz(i) * sz(nb);
    double b = row.rhs;
    for (const LinTerm& term : row.expr.terms()) {
      const int w = e.where[sz(term.var.index)];
      if (w >= 0) {
        trow[w] += term.coef;
        continue;
      }
      const int r = -w - 1;
      const double* brow = e.tab.data() + sz(r) * sz(nb);
      for (int k = 0; k < nb; ++k) {
        if (brow[k] != 0.0) trow[k] -= term.coef * brow[k];
      }
      b -= term.coef * e.beta[sz(r)];
    }
    e.beta[sz(i)] = b;
  }
  // Old rows of B^{-1} only gain zeros; a new row's is its tableau row's
  // slack columns plus its own basic slack.
  e.weight = std::move(s.weight);
  e.weight.resize(sz(m));
  for (int i = s.m; i < m; ++i) e.weight[sz(i)] = t.row_weight(i);
  s = std::move(e);
}

}  // namespace letdma::milp
