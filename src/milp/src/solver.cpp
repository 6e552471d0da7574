#include "letdma/milp/solver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <queue>
#include <shared_mutex>
#include <thread>
#include <utility>
#include <vector>

#include "letdma/guard/faults.hpp"
#include "letdma/milp/presolve.hpp"
#include "letdma/obs/flight.hpp"
#include "letdma/obs/histogram.hpp"
#include "letdma/obs/obs.hpp"
#include "letdma/obs/sampler.hpp"

namespace letdma::milp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using Clock = std::chrono::steady_clock;

/// A branch-and-bound node stores only its bound change relative to the
/// parent; full bound vectors are materialized on demand by walking the
/// parent chain.
struct Node {
  std::shared_ptr<const Node> parent;
  int var = -1;      // changed variable (-1 for the root)
  double lb = 0.0;   // new bounds for `var`
  double ub = 0.0;
  double bound;      // parent relaxation value (internal minimize sense)
  int depth = 0;
  // Branching bookkeeping for pseudocost updates.
  double frac = 0.0;    // fractional part of `var` at the parent
  bool is_down = false; // this node is the floor-side child
};

using NodePtr = std::shared_ptr<const Node>;

struct BestBoundOrder {
  bool operator()(const NodePtr& a, const NodePtr& b) const {
    if (a->bound != b->bound) return a->bound > b->bound;
    return a->depth < b->depth;  // on ties, dive (DFS-like)
  }
};

using OpenQueue =
    std::priority_queue<NodePtr, std::vector<NodePtr>, BestBoundOrder>;

/// A queue holding only the root node (bound -inf: nothing is proved yet).
OpenQueue root_queue() {
  OpenQueue open;
  auto root = std::make_shared<Node>();
  root->bound = -kInf;
  open.push(std::move(root));
  return open;
}

NodePtr pop(OpenQueue& open) {
  NodePtr top = open.top();
  open.pop();
  return top;
}

/// The best queued bound; +inf when the queue is empty (no node bound is).
double top_bound(const OpenQueue& open) {
  return open.empty() ? kInf : open.top()->bound;
}

/// Pseudocosts: per variable, average relaxation degradation observed per
/// unit of fractionality when branching down/up. Guides later branching
/// decisions toward variables that actually move the bound. Workers keep
/// private tables in parallel mode (a stale table only degrades branching
/// quality, never correctness).
struct Pseudocost {
  double down_sum = 0, up_sum = 0;
  int down_n = 0, up_n = 0;
};

const Pseudocost& pseudo_at(const std::vector<Pseudocost>& pseudo, int var) {
  static const Pseudocost kEmpty;
  if (var < 0 || var >= static_cast<int>(pseudo.size())) return kEmpty;
  return pseudo[static_cast<std::size_t>(var)];
}

/// Feeds the pseudocost of the branching that created `node`, observed to
/// relax to `node_obj`.
void feed_pseudocost(std::vector<Pseudocost>& pseudo, const Node& node,
                     double node_obj, double int_tol) {
  if (node.var < 0 || node.frac <= int_tol || node.bound == -kInf) return;
  const double degradation = std::max(0.0, node_obj - node.bound) /
                             (node.is_down ? node.frac : (1.0 - node.frac));
  if (node.var >= static_cast<int>(pseudo.size())) {
    pseudo.resize(static_cast<std::size_t>(node.var) + 1);
  }
  Pseudocost& pc = pseudo[static_cast<std::size_t>(node.var)];
  if (node.is_down) {
    pc.down_sum += degradation;
    pc.down_n += 1;
  } else {
    pc.up_sum += degradation;
    pc.up_n += 1;
  }
}

struct BranchPick {
  int var = -1;       // -1: the relaxation is integral
  double frac = 0.0;  // fractional part of `var`
};

obs::Histogram& node_lp_hist() {
  static obs::Histogram h("milp.node_lp_us");
  return h;
}

/// Runs one LP solve, timing it into milp.node_lp_us when `sampled`.
/// Callers sample every 16th node: at ~400k nodes/sec two clock reads per
/// node would be measurable, one per 16 is not, and the percentiles are
/// statistically identical.
template <typename Fn>
LpResult timed_lp(bool sampled, Fn&& fn) {
  if (!sampled) return fn();
  const auto t0 = Clock::now();
  LpResult r = fn();
  node_lp_hist().record(
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  return r;
}

/// Picks the branching variable over the first `n` variables of `x`:
/// pseudocost product score, falling back to most-fractional while no
/// history exists.
BranchPick pick_branch(const Model& model, const std::vector<double>& x,
                       int n, const std::vector<Pseudocost>& pseudo,
                       double int_tol) {
  BranchPick out;
  double best_score = -1.0;
  for (int j = 0; j < n; ++j) {
    if (model.var(j).type == VarType::kContinuous) continue;
    const double v = x[static_cast<std::size_t>(j)];
    const double frac = v - std::floor(v);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist <= int_tol) continue;
    const Pseudocost& pc = pseudo_at(pseudo, j);
    const double down_rate = pc.down_n > 0 ? pc.down_sum / pc.down_n : 1.0;
    const double up_rate = pc.up_n > 0 ? pc.up_sum / pc.up_n : 1.0;
    const double down_est = down_rate * frac;
    const double up_est = up_rate * (1.0 - frac);
    // Product rule with the fractionality as a tiebreaker.
    const double score =
        std::max(down_est, 1e-8) * std::max(up_est, 1e-8) + 1e-3 * dist;
    if (score > best_score) {
      best_score = score;
      out.var = j;
      out.frac = frac;
    }
  }
  return out;
}

/// Snaps the integer variables of `x` exactly (first min(n, |x|) entries).
void snap_integral(const Model& model, std::vector<double>& x, int n) {
  const int m = std::min(n, static_cast<int>(x.size()));
  for (int j = 0; j < m; ++j) {
    if (model.var(j).type != VarType::kContinuous) {
      x[static_cast<std::size_t>(j)] =
          std::round(x[static_cast<std::size_t>(j)]);
    }
  }
}

/// Materializes the bound vectors for `node`: model bounds, tightened by
/// the root presolve, intersected with the node's branching chain. Bounds
/// are rebuilt from the model each time because lazy callbacks may append
/// variables (and rows) mid-solve; node chains only ever reference
/// variables that existed when the node was created.
void intersect_node_bounds(const Model& model, const MilpOptions& options,
                           const PresolveResult& presolved, const Node& node,
                           std::vector<double>& lb, std::vector<double>& ub) {
  const int n = model.num_vars();
  lb.resize(static_cast<std::size_t>(n));
  ub.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    lb[static_cast<std::size_t>(j)] = model.var(j).lb;
    ub[static_cast<std::size_t>(j)] = model.var(j).ub;
  }
  if (options.presolve && !presolved.infeasible) {
    const int np = static_cast<int>(presolved.lb.size());
    for (int j = 0; j < std::min(n, np); ++j) {
      lb[static_cast<std::size_t>(j)] =
          std::max(lb[static_cast<std::size_t>(j)],
                   presolved.lb[static_cast<std::size_t>(j)]);
      ub[static_cast<std::size_t>(j)] =
          std::min(ub[static_cast<std::size_t>(j)],
                   presolved.ub[static_cast<std::size_t>(j)]);
    }
  }
  // Apply changes root->leaf so later (deeper) changes win. Changes only
  // tighten, so applying leaf-first with max/min is equivalent; we walk
  // the chain and intersect.
  for (const Node* p = &node; p != nullptr; p = p->parent.get()) {
    if (p->var < 0) continue;
    lb[static_cast<std::size_t>(p->var)] =
        std::max(lb[static_cast<std::size_t>(p->var)], p->lb);
    ub[static_cast<std::size_t>(p->var)] =
        std::min(ub[static_cast<std::size_t>(p->var)], p->ub);
  }
}

int resolve_threads(int requested) {
  if (requested > 0) return std::min(requested, 256);
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(std::min(hc, 64u));
}

/// The wall-clock deadline for a solve (clamped so absurd limits cannot
/// overflow the steady_clock representation).
Clock::time_point solve_deadline(Clock::time_point t0, double limit_sec) {
  const double capped = std::clamp(limit_sec, 0.0, 1.0e9);
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(capped));
}

/// Root presolve, run once before any search loop: propagates bounds,
/// generates clique/cover cuts when enabled, installs the cut rows into
/// the model (globally valid for the integer hull, exactly like lazy
/// rows) and reports the presolve work in `stats`. Cut installation is
/// input-deterministic, so the deterministic mode's thread-count
/// independence is untouched.
PresolveResult run_root_presolve(Model& model, const MilpOptions& options,
                                 MilpStats& stats) {
  PresolveOptions po;
  po.cuts = options.presolve_cuts;
  PresolveResult presolved = presolve(model, po);
  stats.presolve_fixed = presolved.fixed_vars;
  if (!presolved.infeasible && !presolved.cuts.empty()) {
    for (const PresolveCut& cut : presolved.cuts) {
      model.add_constraint(cut.expr, cut.sense, cut.rhs, cut.name);
    }
    stats.presolve_cuts_added = static_cast<int>(presolved.cuts.size());
  }
  return presolved;
}

/// Injected kStall sleep, clamped to the solve deadline so short time
/// limits are not quantized by the stall duration (the node loop checks
/// the deadline right after).
void stall_sleep(Clock::time_point deadline) {
  const Clock::time_point cap = Clock::now() + std::chrono::milliseconds(20);
  std::this_thread::sleep_until(std::min(cap, deadline));
}

/// A persistent pool for deterministic epochs: run(count, fn) executes
/// fn(i, slot) for i in [0, count), task i statically assigned to slot
/// i % workers so per-worker attribution is reproducible. Blocks until the
/// batch drains; rethrows the first (lowest-slot) captured exception.
class TaskPool {
 public:
  explicit TaskPool(int workers)
      : workers_(workers), errors_(static_cast<std::size_t>(workers)) {
    threads_.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      threads_.emplace_back([this, w] { run_worker(w); });
    }
  }

  ~TaskPool() {
    {
      std::lock_guard<std::mutex> g(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  void run(std::size_t count, const std::function<void(std::size_t, int)>& fn) {
    if (count == 0) return;
    {
      std::lock_guard<std::mutex> g(mu_);
      fn_ = &fn;
      count_ = count;
      finished_ = 0;
      ++generation_;
    }
    cv_.notify_all();
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return finished_ == workers_; });
    for (std::exception_ptr& e : errors_) {
      if (e) {
        const std::exception_ptr err = e;
        for (std::exception_ptr& x : errors_) x = nullptr;
        std::rethrow_exception(err);
      }
    }
  }

 private:
  void run_worker(int w) {
    std::uint64_t seen = 0;
    for (;;) {
      std::size_t count = 0;
      const std::function<void(std::size_t, int)>* fn = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
        if (shutdown_) return;
        seen = generation_;
        count = count_;
        fn = fn_;
      }
      try {
        for (std::size_t i = static_cast<std::size_t>(w); i < count;
             i += static_cast<std::size_t>(workers_)) {
          (*fn)(i, w);
        }
      } catch (...) {
        std::lock_guard<std::mutex> g(mu_);
        errors_[static_cast<std::size_t>(w)] = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> g(mu_);
        if (++finished_ == workers_) done_cv_.notify_all();
      }
    }
  }

  const int workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  std::size_t count_ = 0;
  const std::function<void(std::size_t, int)>* fn_ = nullptr;
  int finished_ = 0;
  bool shutdown_ = false;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> threads_;
};

/// Per-worker scratch: the node's materialized bounds and the tableau its
/// relaxation is re-solved in.
struct NodeScratch {
  std::vector<double> lb, ub;
  LpState lp;
  /// The node whose optimal tableau `lp` holds, when a plunging loop may
  /// start its children from it (null otherwise).
  std::shared_ptr<const Node> lp_node;
};

/// What the node step observed; Search::commit consumes it.
struct NodeEval {
  LpStatus status = LpStatus::kIterLimit;
  long iterations = 0;
  bool warm_fallback = false;  // the warm re-solve gave up (counted)
  /// The root's optimal tableau, for commit to install as the snapshot
  /// every later node re-solves from.
  std::unique_ptr<LpState> root_lp;
  int rows = 0;           // model rows the relaxation was solved against
  double node_obj = 0.0;  // internal minimize sense (kOptimal only)
  BranchPick pick;        // var -1: integral, and `x` is snapped
  double branch_lb = 0.0;  // materialized bounds of pick.var
  double branch_ub = 0.0;
  std::vector<double> x;  // relaxation point (kOptimal only)
};

/// What a commit leaves to the search loop.
struct Step {
  bool resolve = false;  // lazy rows landed: solve this node again
  NodePtr down, up;      // children, set when the node branched
};

/// Plunging: the child closer to the relaxation value becomes `plunge`;
/// returns the other, which goes to the queue.
NodePtr dive(Step& step, NodePtr& plunge) {
  const bool down_first = step.down->frac < 0.5;
  plunge = std::move(down_first ? step.down : step.up);
  return std::move(down_first ? step.up : step.down);
}

// ---------------------------------------------------------------------------
// One search, shared by the three node-selection loops below. It owns the
// incumbent, the per-worker statistics and the two halves of processing a
// node: evaluate() (bounds, relaxation, branching pick; writes no shared
// state, so epoch tasks run it concurrently) and commit() (applies the
// outcome). Gap samples, limit checks, the warm-start/presolve preamble
// and result assembly live here too.
//
// Locking discipline (acquire order, never reversed). Only the
// free-running loop contends; the others take the same locks uncontended.
//
//   cb_mu     — serializes lazy separation, incumbent acceptance, and both
//               user callbacks; also the only context that mutates the model.
//   model_mu  — shared for the node step (model reads), unique for lazy
//               row/column insertion.
//   mu        — incumbent record, gap samples, and the free-running loop's
//               queue and termination state.
//
// Pruning reads an atomic mirror of the incumbent objective, so the hot
// path takes no lock.
// ---------------------------------------------------------------------------

class Search {
 public:
  Search(Model& model, const MilpOptions& options,
         const LazyConstraintCallback& lazy, int workers)
      : wstats(static_cast<std::size_t>(workers)),
        model_(model),
        options_(options),
        lazy_(lazy),
        deadline_(solve_deadline(t0_, options.time_limit_sec)),
        sense_sign_(model.objective_sense() == ObjSense::kMinimize ? 1.0
                                                                    : -1.0),
        has_integers_(model.has_integer_vars()),
        lp_(model, options.lp) {
    for (int w = 0; w < workers; ++w) {
      wstats[static_cast<std::size_t>(w)].worker = w;
    }
    stats_.threads_used = workers;
  }

  const MilpOptions& options() const { return options_; }
  int workers() const { return static_cast<int>(wstats.size()); }

  /// Seeds the incumbent from the warm start (credited to worker 0) and
  /// runs the root presolve: its propagated bounds apply to every node
  /// (lazy rows can only shrink the feasible set further). A warm start
  /// proves feasibility, so a presolve infeasibility verdict is trusted
  /// only without one. False when no search is needed.
  bool prepare(const std::vector<double>& warm_start) {
    if (!warm_start.empty() &&
        accept(warm_start,
               sense_sign_ * model_.objective_value(warm_start))) {
      ++wstats[0].incumbents_found;
    }
    if (!options_.presolve) return true;
    presolved_ = run_root_presolve(model_, options_, stats_);
    return !presolved_.infeasible || !incumbent_x_.empty();
  }

  /// True when the solve must stop at this node boundary: the stop token,
  /// the deadline or the node limit. The bound proof is then lost.
  bool limit_hit() {
    const bool stop = options_.stop != nullptr &&
                      options_.stop->load(std::memory_order_relaxed);
    if (!stop && Clock::now() <= deadline_ &&
        nodes.load(std::memory_order_relaxed) < options_.node_limit) {
      return false;
    }
    proof_lost_ = true;
    if (stop) cancelled_ = true;
    return true;
  }

  /// Polls a node fault site. A stall sleeps toward the deadline; a
  /// spurious infeasibility drops the node (true) yet leaves the bound
  /// proof "intact": when that empties the tree with no incumbent the
  /// solver confidently reports kInfeasible for a feasible instance —
  /// exactly the lie the supervised engine's cross-check is built to
  /// refute.
  bool dropped_by_fault(const char* site) const {
    const auto fault = guard::fault_point(site);
    if (fault == guard::FaultKind::kStall) stall_sleep(deadline_);
    return fault == guard::FaultKind::kSpuriousInfeasible;
  }

  bool prunable(double bound) const {
    return bound >= incumbent_mirror_.load(std::memory_order_relaxed) -
                        options_.abs_gap;
  }

  bool unbounded() const { return unbounded_.load(); }

  /// Gap-over-time sample against `bound` (internal sense), mirrored as
  /// milp.gap / milp.nodes counters. Needs an incumbent and a finite
  /// bound; capped so pathological runs cannot grow it unboundedly. The
  /// free-running loop calls it under mu.
  void record_gap(double bound) {
    if (incumbent_x_.empty() || !std::isfinite(bound)) return;
    if (stats_.gap_timeline.size() >= 4096) return;
    GapSample s;
    s.t_sec = elapsed();
    s.gap = std::abs(incumbent_obj_ - bound) /
            std::max(1.0, std::abs(incumbent_obj_));
    s.best_bound = sense_sign_ * bound;
    s.nodes = nodes.load(std::memory_order_relaxed);
    stats_.gap_timeline.push_back(s);
    if (obs::enabled()) {
      const std::int64_t ts = obs::now_us();
      for (const auto& [name, value] :
           {std::pair<const char*, obs::ArgValue>{"milp.gap", s.gap},
            {"milp.nodes", static_cast<std::int64_t>(s.nodes)}}) {
        obs::Event e;
        e.phase = obs::Phase::kCounter;
        e.name = name;
        e.category = "milp";
        e.ts_us = ts;
        e.args.push_back({"value", value});
        obs::emit(std::move(e));
      }
    }
  }

  /// The node step: materializes the node's bounds, solves its relaxation
  /// (timed into milp.node_lp_us when `sampled`) and picks the branching
  /// variable against `pseudo`. Writes only `nb` and the returned value.
  /// The root solves cold and hands its tableau to commit; every other
  /// node re-solves warm in the worker's own tableau. A plunging loop
  /// starts a node from the tableau the worker left for its parent (or for
  /// the node itself, after lazy rows), else from a copy of the root's
  /// snapshot. The epoch loop always copies the snapshot, so there a
  /// node's LP depends only on (snapshot, bounds), whichever slot runs it.
  NodeEval evaluate(const NodePtr& self, NodeScratch& nb,
                    const std::vector<Pseudocost>& pseudo, bool sampled) {
    std::shared_lock<std::shared_mutex> ml(model_mu);
    const Node& node = *self;
    NodeEval ev;
    ev.rows = model_.num_constraints();
    intersect_node_bounds(model_, options_, presolved_, node, nb.lb, nb.ub);
    const int n = model_.num_vars();
    const bool chained = nb.lp_node != nullptr &&
                         (nb.lp_node == self || nb.lp_node == node.parent);
    LpResult rel = timed_lp(sampled, [&] {
      if (chained) {
        lp_.extend(nb.lp);  // rows/columns that landed since
        return lp_.resolve(nb.lp, nb.lb, nb.ub, nb.lp);
      }
      if (root_lp_.valid()) return lp_.resolve(root_lp_, nb.lb, nb.ub, nb.lp);
      ev.root_lp = std::make_unique<LpState>();
      return lp_.solve_with_bounds(nb.lb, nb.ub, ev.root_lp.get());
    });
    nb.lp_node = nullptr;
    if (rel.status == LpStatus::kOptimal && ev.root_lp == nullptr &&
        !options_.deterministic) {
      nb.lp_node = self;
    }
    ev.status = rel.status;
    ev.iterations = rel.iterations;
    ev.warm_fallback = rel.warm_fallback;
    if (rel.status != LpStatus::kOptimal) return ev;
    ev.node_obj = sense_sign_ * rel.objective;
    ev.pick = pick_branch(model_, rel.x, n, pseudo, options_.int_tol);
    if (ev.pick.var >= 0) {
      ev.branch_lb = nb.lb[static_cast<std::size_t>(ev.pick.var)];
      ev.branch_ub = nb.ub[static_cast<std::size_t>(ev.pick.var)];
    } else {
      snap_integral(model_, rel.x, n);
    }
    ev.x = std::move(rel.x);
    return ev;
  }

  /// Applies a node step's outcome. An infeasible relaxation closes the
  /// node; an unbounded one ends the solve at the root (or without
  /// integers) and otherwise, like an iteration limit, loses the bound
  /// proof. Then: pseudocost feed, prune, and for an integral point lazy
  /// separation or incumbent acceptance, else the two children.
  Step commit(const NodePtr& self, NodeEval& ev,
              std::vector<Pseudocost>& pseudo, WorkerStats& ws) {
    const Node& node = *self;
    ws.lp_iterations += ev.iterations;
    ws.warm_fallbacks += ev.warm_fallback ? 1 : 0;
    if (ev.root_lp != nullptr && ev.root_lp->valid()) {
      // Only the root solves cold, and it commits before any child exists.
      std::unique_lock<std::shared_mutex> mlw(model_mu);
      if (!root_lp_.valid()) root_lp_ = std::move(*ev.root_lp);
    }
    if (ev.status == LpStatus::kInfeasible) return {};
    if (ev.status != LpStatus::kOptimal) {
      if (ev.status == LpStatus::kUnbounded &&
          (!has_integers_ || node.depth == 0)) {
        unbounded_ = true;
      } else {
        proof_lost_ = true;
      }
      return {};
    }
    feed_pseudocost(pseudo, node, ev.node_obj, options_.int_tol);
    if (prunable(ev.node_obj)) {
      ++ws.nodes_pruned;
      return {};
    }
    if (ev.pick.var < 0) {
      std::lock_guard<std::mutex> cbl(cb_mu);
      if (lazy_) {
        // All model mutation happens under cb_mu, so a row count that moved
        // since the relaxation was solved means rows landed after it
        // (another worker, or an earlier commit of this epoch): the point
        // must be re-proved against the enlarged model, not trusted.
        if (model_.num_constraints() != ev.rows) return {true, {}, {}};
        std::vector<LazyRow> rows;
        {
          // The callback may add variables before returning rows that
          // reference them, so it runs under the writer lock itself.
          std::unique_lock<std::shared_mutex> mlw(model_mu);
          rows = lazy_(ev.x);
          for (LazyRow& r : rows) {
            model_.add_constraint(std::move(r.expr), r.sense, r.rhs,
                                  std::move(r.name));
          }
          // New rows enter the snapshot with basic slacks and new columns
          // nonbasic, so later re-solves stay warm.
          if (root_lp_.valid()) lp_.extend(root_lp_);
        }
        if (!rows.empty()) {
          ++stats_.separation_rounds;
          stats_.lazy_rows_added += static_cast<int>(rows.size());
          if (obs::enabled()) {
            obs::instant("milp.lazy_separation", "milp",
                         {{"rows", static_cast<std::int64_t>(rows.size())},
                          {"nodes", nodes.load(std::memory_order_relaxed)}});
          }
          return {true, {}, {}};
        }
      }
      if (accept(std::move(ev.x), ev.node_obj)) ++ws.incumbents_found;
      return {};
    }
    const double dn = std::floor(ev.x[static_cast<std::size_t>(ev.pick.var)]);
    const auto child = [&](bool down) {
      return std::make_shared<const Node>(
          Node{self, ev.pick.var, down ? ev.branch_lb : dn + 1.0,
               down ? dn : ev.branch_ub, ev.node_obj, node.depth + 1,
               ev.pick.frac, down});
    };
    return {false, child(true), child(false)};
  }

  /// Node step plus commit, re-solved in place while lazy rows land (the
  /// plunging loops; epochs requeue instead). `idx` is the node's index
  /// in exploration order: every 16th node LP is timed.
  Step process(const NodePtr& node, NodeScratch& nb,
               std::vector<Pseudocost>& pseudo, WorkerStats& ws, long idx) {
    for (;;) {
      NodeEval ev = evaluate(node, nb, pseudo, (idx & 0xF) == 0);
      Step step = commit(node, ev, pseudo, ws);
      if (!step.resolve) return step;
    }
  }

  /// Assembles the result once the loop is done. `open_bound` is the best
  /// bound over unexplored nodes (+inf when none remain).
  MilpResult finish(double open_bound) {
    MilpResult result;
    stats_.nodes_explored = nodes.load();
    for (const WorkerStats& ws : wstats) {
      stats_.lp_iterations += ws.lp_iterations;
      stats_.nodes_pruned += ws.nodes_pruned;
      stats_.warm_fallbacks += ws.warm_fallbacks;
    }
    stats_.per_worker = wstats;
    stats_.cancelled = cancelled_.load();
    if (unbounded()) {
      result.status = MilpStatus::kUnbounded;
    } else {
      const double bound = std::min(incumbent_obj_, open_bound);
      record_gap(bound);  // closing sample (gap 0 when proved)
      const bool proved = open_bound == kInf && !proof_lost_.load();
      if (incumbent_x_.empty()) {
        result.status = proved ? MilpStatus::kInfeasible : MilpStatus::kLimit;
      } else {
        result.x = std::move(incumbent_x_);
        result.objective = sense_sign_ * incumbent_obj_;
        result.status = proved ? MilpStatus::kOptimal : MilpStatus::kFeasible;
        result.best_bound = proved ? result.objective : sense_sign_ * bound;
      }
    }
    stats_.wall_sec = elapsed();
    result.stats = std::move(stats_);
    return result;
  }

  std::mutex mu;
  std::atomic<long> nodes{0};    // explored so far; also the node index
  std::vector<WorkerStats> wstats;  // one slice per worker; totals sum them

 private:
  double elapsed() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  /// Records `x` (integer-snapped) as the incumbent unless a better one
  /// won the race. Callers hold cb_mu once workers run, so the callbacks
  /// never overlap.
  bool accept(std::vector<double> x, double internal_obj) {
    snap_integral(model_, x, model_.num_vars());
    const double reported = sense_sign_ * internal_obj;
    double t = 0.0;
    long nodes_at = 0;
    {
      std::lock_guard<std::mutex> g(mu);
      if (internal_obj >= incumbent_obj_ - options_.abs_gap) return false;
      incumbent_obj_ = internal_obj;
      incumbent_mirror_.store(internal_obj, std::memory_order_relaxed);
      incumbent_x_ = x;
      t = elapsed();
      nodes_at = nodes.load(std::memory_order_relaxed);
      if (stats_.first_incumbent_sec < 0) stats_.first_incumbent_sec = t;
      stats_.incumbents.push_back({t, reported, nodes_at});
    }
    // Incumbents are rare and load-bearing for post-mortems: record them
    // in the flight ring (always on) as well as the trace stream.
    obs::flight_event("milp.incumbent", "milp",
                      {{"objective", reported}, {"nodes", nodes_at},
                       {"t_sec", t}});
    if (options_.log) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "incumbent obj=%.6g nodes=%ld t=%.2fs",
                    reported, nodes_at, t);
      obs::log_info("milp", buf);
    }
    if (options_.on_incumbent) options_.on_incumbent(x, reported);
    return true;
  }

  std::mutex cb_mu;
  std::shared_mutex model_mu;
  Model& model_;
  const MilpOptions& options_;
  const LazyConstraintCallback& lazy_;
  const Clock::time_point t0_ = Clock::now();
  const Clock::time_point deadline_;
  const double sense_sign_;
  const bool has_integers_;
  const SimplexSolver lp_;  // stateless: every worker solves through it
  /// The root relaxation's optimal tableau (guarded by model_mu; written
  /// once by the root's commit, extended under the writer lock when lazy
  /// rows or columns land).
  LpState root_lp_;
  PresolveResult presolved_;
  MilpStats stats_;

  double incumbent_obj_ = kInf;  // internal minimize sense; guarded by mu
  std::vector<double> incumbent_x_;
  std::atomic<double> incumbent_mirror_{kInf};
  std::atomic<bool> proof_lost_{false};  // a node was left unresolved
  std::atomic<bool> unbounded_{false};
  std::atomic<bool> cancelled_{false};
};

// ---------------------------------------------------------------------------
// Sequential loop (threads == 1): best-bound order with depth-first
// plunging. After branching it dives into the child closer to the
// relaxation value (skipping the queue) until the plunge ends in a prune or
// leaf — finding incumbents early while the queue keeps global best-bound
// order. Returns the best open bound (+inf when the tree is exhausted).
// ---------------------------------------------------------------------------

double run_sequential(Search& s) {
  WorkerStats& ws = s.wstats[0];
  NodeScratch nb;
  std::vector<Pseudocost> pseudo;
  OpenQueue open = root_queue();
  NodePtr plunge;
  while ((!open.empty() || plunge != nullptr) && !s.unbounded() &&
         !s.limit_hit()) {
    const NodePtr node = plunge != nullptr ? std::move(plunge) : pop(open);
    if (s.dropped_by_fault("milp.node")) continue;
    // Prune by bound (the incumbent may have improved since push).
    if (s.prunable(node->bound)) {
      ++ws.nodes_pruned;
      continue;
    }
    const long idx = ++s.nodes;
    ++ws.nodes_explored;
    if ((idx & 0xFF) == 0) {
      s.record_gap(std::min(node->bound, top_bound(open)));
    }
    Step step = s.process(node, nb, pseudo, ws, idx);
    if (step.down != nullptr) open.push(dive(step, plunge));
  }
  // A pending plunge node is part of the open set for bound purposes.
  return std::min(top_bound(open), plunge != nullptr ? plunge->bound : kInf);
}

// ---------------------------------------------------------------------------
// Free-running loop (threads > 1): workers plunge like the sequential loop
// but share the best-bound queue under Search::mu. The solve ends when the
// queue is empty and every worker is idle (queue-empty alone is not
// termination: an active worker may still push children). Each worker owns
// its bound scratch, pseudocost table and plunge chain; node order depends
// on timing.
// ---------------------------------------------------------------------------

double run_parallel(Search& s) {
  const int nthreads = s.workers();
  std::condition_variable cv;
  OpenQueue open = root_queue();  // guarded by s.mu, like the rest below
  int active = nthreads;  // workers currently holding a node
  bool done = false;
  bool abort_flag = false;
  std::exception_ptr first_error;
  // In-flight node bound per worker (kInf when idle), for the global bound.
  std::vector<double> worker_bound(static_cast<std::size_t>(nthreads), kInf);

  auto worker_fn = [&](int w) {
    WorkerStats& ws = s.wstats[static_cast<std::size_t>(w)];
    double& my_bound = worker_bound[static_cast<std::size_t>(w)];
    NodeScratch nb;
    std::vector<Pseudocost> pseudo;
    NodePtr plunge;
    try {
      for (;;) {
        NodePtr node;
        if (plunge != nullptr) {
          node = std::move(plunge);
        } else {
          std::unique_lock<std::mutex> lock(s.mu);
          my_bound = kInf;
          if (--active == 0 && open.empty() && !done) {
            done = true;
            cv.notify_all();
          }
          cv.wait(lock, [&] { return done || abort_flag || !open.empty(); });
          if (done || abort_flag) break;
          node = pop(open);
          ++active;
          my_bound = node->bound;
        }

        // Limit / cancellation check on every node boundary. The node in
        // hand goes back to the queue so the final bound stays sound.
        if (s.limit_hit()) {
          std::lock_guard<std::mutex> g(s.mu);
          open.push(std::move(node));
          abort_flag = true;
          cv.notify_all();
          break;
        }
        if (s.dropped_by_fault("milp.worker") ||
            s.dropped_by_fault("milp.node")) {
          continue;
        }
        if (s.prunable(node->bound)) {
          ++ws.nodes_pruned;
          continue;
        }
        const long idx = ++s.nodes;
        ++ws.nodes_explored;
        if ((idx & 0xFF) == 0) {
          // Global bound = min over queued and in-flight nodes.
          std::lock_guard<std::mutex> g(s.mu);
          double bound = top_bound(open);
          for (const double b : worker_bound) bound = std::min(bound, b);
          s.record_gap(bound);
        }
        Step step = s.process(node, nb, pseudo, ws, idx);
        if (s.unbounded()) {
          std::lock_guard<std::mutex> g(s.mu);
          abort_flag = true;
          cv.notify_all();
          break;
        }
        if (step.down == nullptr) continue;
        NodePtr queued = dive(step, plunge);
        {
          std::lock_guard<std::mutex> g(s.mu);
          open.push(std::move(queued));
          my_bound = plunge->bound;
        }
        cv.notify_one();
      }
    } catch (...) {
      std::lock_guard<std::mutex> g(s.mu);
      if (!first_error) first_error = std::current_exception();
      abort_flag = true;
      cv.notify_all();
    }
    std::lock_guard<std::mutex> g(s.mu);
    my_bound = kInf;
  };

  // Gauge timelines for the trace export. Each gauge takes mu for a few
  // loads; at the sampler's default 20 Hz that is noise next to the queue
  // traffic the workers generate. The sequential loop gets no sampler —
  // its queue is single-thread-owned and unsynchronized, so a sampler
  // thread reading it would race. start() is a no-op with no sink.
  obs::Sampler sampler({0.05, "milp", 0});
  sampler.add_gauge("milp.queue_depth", [&] {
    std::lock_guard<std::mutex> g(s.mu);
    return static_cast<double>(open.size());
  });
  sampler.add_gauge("milp.workers_idle_frac", [&] {
    std::lock_guard<std::mutex> g(s.mu);
    return static_cast<double>(nthreads - active) /
           static_cast<double>(nthreads);
  });
  sampler.add_gauge("milp.bound_spread", [&] {
    std::lock_guard<std::mutex> g(s.mu);
    double lo = kInf, hi = -kInf;
    const auto feed = [&](double b) {
      if (b == kInf || b == -kInf) return;
      lo = std::min(lo, b);
      hi = std::max(hi, b);
    };
    for (const double b : worker_bound) feed(b);
    if (!open.empty()) feed(open.top()->bound);
    return hi > lo ? hi - lo : 0.0;
  });
  sampler.start();

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nthreads));
  for (int w = 0; w < nthreads; ++w) threads.emplace_back(worker_fn, w);
  for (std::thread& t : threads) t.join();
  sampler.stop();

  // A worker's exception (e.g. an injected milp.worker throw) fails the
  // whole solve loudly, exactly like the sequential loop.
  if (first_error) std::rethrow_exception(first_error);
  return top_bound(open);
}

// ---------------------------------------------------------------------------
// Deterministic epoch loop: nodes are popped in best-bound order in fixed-
// size batches, node steps run in parallel against an epoch-start snapshot
// of incumbent/pseudocosts/model, and every commit runs sequentially in pop
// order. A node whose lazy rows landed (or whose relaxation an earlier
// commit made stale) is requeued rather than re-solved in place. Both
// children are queued: a plunge chain's length depends on timing, which the
// schedule must not. The schedule of work — and therefore the result — is
// independent of the worker count.
// ---------------------------------------------------------------------------

double run_deterministic(Search& s) {
  const int nthreads = s.workers();
  const std::size_t batch_cap = static_cast<std::size_t>(
      std::max(1, s.options().deterministic_batch));
  TaskPool pool(nthreads);
  std::vector<NodeScratch> bounds(static_cast<std::size_t>(nthreads));
  std::vector<Pseudocost> pseudo;
  OpenQueue open = root_queue();

  struct Task {
    NodePtr node;
    long idx = 0;
    bool dropped = false;  // injected spurious infeasibility
    NodeEval ev;
  };
  std::vector<Task> batch;
  long last_gap_nodes = 0;

  while (!open.empty() && !s.unbounded() && !s.limit_hit()) {
    // The batch size does not depend on the worker count, so the
    // exploration schedule is reproducible for any `threads`.
    batch.clear();
    while (batch.size() < batch_cap && !open.empty()) {
      NodePtr node = pop(open);
      if (s.prunable(node->bound)) {
        ++s.wstats[0].nodes_pruned;
        continue;
      }
      batch.push_back({std::move(node), ++s.nodes, false, {}});
    }

    // Parallel phase: task i runs on slot i % nthreads and writes only its
    // own task and slot.
    pool.run(batch.size(), [&](std::size_t i, int slot) {
      Task& t = batch[i];
      // The node was counted when popped, so its slot is credited even
      // when a fault drops it.
      ++s.wstats[static_cast<std::size_t>(slot)].nodes_explored;
      t.dropped = s.dropped_by_fault("milp.worker") ||
                  s.dropped_by_fault("milp.node");
      if (t.dropped) return;
      t.ev = s.evaluate(t.node, bounds[static_cast<std::size_t>(slot)],
                        pseudo, (t.idx & 0xF) == 0);
    });

    // Sequential commit phase, in pop order.
    for (std::size_t i = 0; i < batch.size() && !s.unbounded(); ++i) {
      Task& t = batch[i];
      if (t.dropped) continue;
      const Step step = s.commit(
          t.node, t.ev, pseudo,
          s.wstats[i % static_cast<std::size_t>(nthreads)]);
      if (step.resolve) {
        open.push(t.node);
      } else if (step.down != nullptr) {
        open.push(step.down);
        open.push(step.up);
      }
    }

    const long explored = s.nodes.load();
    if (explored - last_gap_nodes >= 256 && !open.empty()) {
      last_gap_nodes = explored;
      s.record_gap(top_bound(open));
    }
  }
  return top_bound(open);
}
}  // namespace

double MilpResult::gap() const {
  if (x.empty()) return kInf;
  const double denom = std::max(1.0, std::abs(objective));
  return std::abs(objective - best_bound) / denom;
}

MilpSolver::MilpSolver(Model& model, MilpOptions options)
    : model_(model), options_(options) {}

void MilpSolver::set_lazy_callback(LazyConstraintCallback cb) {
  lazy_ = std::move(cb);
}

bool MilpSolver::set_warm_start(std::vector<double> x) {
  if (!model_.is_feasible(x, options_.int_tol)) return false;
  if (lazy_) {
    const auto violated = lazy_(x);
    if (!violated.empty()) return false;
  }
  warm_start_ = std::move(x);
  return true;
}

MilpResult MilpSolver::solve() {
  const int threads = resolve_threads(options_.threads);

  obs::ScopedSpan span("milp.solve", "milp");
  span.arg("vars", static_cast<std::int64_t>(model_.num_vars()));
  span.arg("rows", static_cast<std::int64_t>(model_.num_constraints()));
  span.arg("threads", static_cast<std::int64_t>(threads));
  span.arg("deterministic", options_.deterministic);

  Search search(model_, options_, lazy_, threads);
  double open_bound = kInf;
  if (search.prepare(warm_start_)) {
    if (options_.deterministic) {
      open_bound = run_deterministic(search);
    } else if (threads == 1) {
      open_bound = run_sequential(search);
    } else {
      open_bound = run_parallel(search);
    }
  }
  MilpResult result = search.finish(open_bound);

  span.arg("nodes", result.stats.nodes_explored);
  span.arg("lp_iterations", result.stats.lp_iterations);
  span.arg("lazy_rows",
           static_cast<std::int64_t>(result.stats.lazy_rows_added));
  span.arg("incumbents",
           static_cast<std::int64_t>(result.stats.incumbents.size()));
  return result;
}

}  // namespace letdma::milp
