// Branch & bound MILP solver with lazy-constraint support.
//
// Node relaxations are solved by SimplexSolver with per-node bound
// overrides (no model copies): the root cold, every other node warm with a
// bounded dual simplex from a snapshot of the root's optimal tableau (or,
// when plunging, from the tableau left for the node's parent; DESIGN.md
// §10.4). Node selection is best-bound with depth-first plunging so
// feasible incumbents appear early. Branching uses the pseudocost product
// rule (observed bound degradation per unit of fractionality, down times
// up), falling back to the most fractional integer variable while a
// variable has no history. Lazy constraints —
// used by the LET-DMA formulation for the cubic contiguity family
// (Constraint 6) — are requested from a callback whenever a node
// relaxation is integral; any returned rows are added globally and the
// node is re-solved.
//
// One node step (bounds, relaxation, branching pick) and one commit of its
// outcome serve three node-selection loops (see DESIGN.md §10). With
// MilpOptions::threads != 1 the loop runs as a worker pool over a shared
// best-bound queue: each worker owns its bound scratch and pseudocost
// table, prunes against an atomic global incumbent, and fires
// lazy/incumbent callbacks under a callback mutex. An optional
// `deterministic` mode trades the plunging heuristic for thread-count
// independent, reproducible exploration.
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "letdma/milp/model.hpp"
#include "letdma/milp/simplex.hpp"

namespace letdma::milp {

enum class MilpStatus {
  kOptimal,    // proved optimal (or proved feasible for pure feasibility)
  kFeasible,   // limit hit with an incumbent available
  kInfeasible, // proved infeasible
  kUnbounded,  // relaxation unbounded with no integer restriction binding
  kLimit,      // limit hit with no incumbent
};

struct MilpOptions {
  double time_limit_sec = 60.0;
  long node_limit = 1'000'000;
  double abs_gap = 1e-6;
  double rel_gap = 1e-6;
  double int_tol = 1e-6;  // integrality tolerance
  /// Emit per-improvement diagnostics through obs::log (category "milp");
  /// with no log sink attached these land on stderr in the standard
  /// "[letdma +t] I milp: ..." format.
  bool log = false;
  bool presolve = true;   // root bound propagation (see presolve.hpp)
  /// Install the presolve clique/cover cut rows into the model at the
  /// root (valid for the integer hull, exactly like lazy rows), so the
  /// tree shrinks instead of just being walked faster. Requires
  /// `presolve`; node counts change when toggled, determinism does not.
  bool presolve_cuts = true;
  SimplexOptions lp;
  /// Cooperative cancellation: polled at every branch-and-bound node. On
  /// cancel the solve stops exactly like on a time limit — kFeasible with
  /// the incumbent when one exists, kLimit otherwise — and
  /// MilpStats::cancelled is set. Not owned; may be null.
  const std::atomic<bool>* stop = nullptr;
  /// Called for every incumbent improvement with the integer-snapped
  /// solution vector and the reported (model-sense) objective. With
  /// `threads > 1` the callback fires from worker threads, serialized
  /// under the solver's callback mutex (never concurrently with itself or
  /// with the lazy callback). Keep it cheap relative to a node solve.
  std::function<void(const std::vector<double>& x, double objective)>
      on_incumbent;
  /// Branch-and-bound worker threads. 0 picks one worker per hardware
  /// thread (`std::thread::hardware_concurrency`). 1 runs the classic
  /// sequential node loop, preserving its deterministic node order
  /// bit-identically. Larger values explore a shared best-bound queue
  /// concurrently, each worker with its own bound scratch and pseudocost
  /// table; node order then depends on timing unless `deterministic` is
  /// set.
  int threads = 0;
  /// Reproducible parallel search: nodes are popped in best-bound order in
  /// fixed-size epochs, relaxations solve concurrently against an
  /// epoch-start snapshot, and all side effects (incumbents, lazy rows,
  /// pseudocosts, child pushes) commit sequentially in pop order. The
  /// exploration — and therefore the result — is identical for every
  /// `threads` value, at the cost of the plunging heuristic.
  bool deterministic = false;
  /// Nodes popped per epoch in deterministic mode. Thread-count
  /// independent so the work schedule is too.
  int deterministic_batch = 8;
};

/// One incumbent improvement: when it landed and what it was worth
/// (objective in the model's sense).
struct IncumbentSample {
  double t_sec = 0.0;
  double objective = 0.0;
  long nodes = 0;
};

/// A periodic snapshot of solve progress (model-sense bound; gap as in
/// MilpResult::gap()). Sampled every 256 nodes while an incumbent exists,
/// capped so pathological runs cannot grow the vector unboundedly.
struct GapSample {
  double t_sec = 0.0;
  double gap = 0.0;
  double best_bound = 0.0;
  long nodes = 0;
};

/// One worker's slice of a solve. Sequential solves report a single entry
/// (worker 0); parallel solves one per spawned worker.
struct WorkerStats {
  int worker = 0;
  long nodes_explored = 0;
  long lp_iterations = 0;
  long nodes_pruned = 0;     // dropped against the incumbent bound
  int incumbents_found = 0;  // improvements this worker committed
  long warm_fallbacks = 0;   // node LPs whose warm re-solve went cold
};

struct MilpStats {
  long nodes_explored = 0;
  long lp_iterations = 0;
  long nodes_pruned = 0;      // bound-pruned nodes, merged across workers
  /// Node LPs whose warm dual simplex gave up and re-solved cold (the
  /// root's own cold solve is not one).
  long warm_fallbacks = 0;
  int lazy_rows_added = 0;
  int separation_rounds = 0;  // lazy-callback rounds that returned rows
  double wall_sec = 0.0;
  bool cancelled = false;     // stopped early via MilpOptions::stop
  int threads_used = 1;       // resolved worker count for this solve
  int presolve_fixed = 0;     // integer vars fixed by the root presolve
  int presolve_cuts_added = 0;  // clique/cover rows installed at the root
  std::vector<WorkerStats> per_worker;

  // Solve *behaviour* over time (Table-1-style incumbent trajectories).
  double first_incumbent_sec = -1.0;  // -1 when no incumbent was found
  std::vector<IncumbentSample> incumbents;
  std::vector<GapSample> gap_timeline;

  int incumbent_improvements() const {
    return static_cast<int>(incumbents.size());
  }
};

struct MilpResult {
  MilpStatus status = MilpStatus::kLimit;
  double objective = 0.0;   // incumbent objective (model sense)
  double best_bound = 0.0;  // proven bound (model sense)
  std::vector<double> x;    // incumbent (empty when none)
  MilpStats stats;

  bool has_solution() const { return !x.empty(); }
  /// Relative optimality gap; 0 when proved optimal, +inf with no incumbent.
  double gap() const;
};

/// A lazily separated row: expr sense rhs.
struct LazyRow {
  LinExpr expr;
  Sense sense = Sense::kLe;
  double rhs = 0.0;
  std::string name;
};

/// Called on every integral relaxation solution; returns the violated rows
/// to add (empty = the point satisfies all lazy constraints and may become
/// the incumbent). Rows must be *globally valid* for the true feasible set.
/// The callback may also add *variables* to the model it captured before
/// returning rows that reference them; the solver re-reads the model size
/// after every separation round.
using LazyConstraintCallback =
    std::function<std::vector<LazyRow>(const std::vector<double>& x)>;

class MilpSolver {
 public:
  /// The model is held by reference and mutated only by lazy-row insertion.
  explicit MilpSolver(Model& model, MilpOptions options = {});

  /// Registers the lazy-constraint separator (optional).
  void set_lazy_callback(LazyConstraintCallback cb);

  /// Seeds the incumbent. The point must satisfy the model *and* the lazy
  /// callback; if it does not, it is rejected (returns false).
  bool set_warm_start(std::vector<double> x);

  MilpResult solve();

 private:
  Model& model_;
  MilpOptions options_;
  LazyConstraintCallback lazy_;
  std::vector<double> warm_start_;
};

}  // namespace letdma::milp
