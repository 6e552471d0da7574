// Parallel branch & bound: determinism contracts, thread-count-invariant
// optima, cooperative cancellation, and worker accounting.
//
// Naming note: the suites are pinned by CI — the TSan job runs
// `ctest -R 'Milp.*Parallel|Engine|Portfolio'`, so every suite here must
// keep "Milp" before "Parallel" in its name.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "letdma/guard/faults.hpp"
#include "letdma/milp/model.hpp"
#include "letdma/milp/solver.hpp"
#include "letdma/support/rng.hpp"

namespace letdma::milp {
namespace {

/// Strongly-correlated knapsack (profit = weight + 5, cap = half the total
/// weight): small models whose trees are deep enough that several workers
/// actually overlap.
Model hard_knapsack(int n, std::uint64_t seed) {
  support::Rng rng(seed);
  Model model;
  LinExpr weight, profit;
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    const double w = static_cast<double>(rng.uniform_int(1, 40));
    const Var x = model.add_binary("x" + std::to_string(i));
    weight += w * x;
    profit += (w + 5.0) * x;
    total += w;
  }
  model.add_constraint(weight, Sense::kLe, std::floor(total / 2.0), "cap");
  model.set_objective(profit, ObjSense::kMaximize);
  return model;
}

/// Random set-packing-ish binary instance (same family the property tests
/// brute-force): n binaries, k subset-capacity rows, maximize weights.
Model random_binary(std::uint64_t seed, int n, int k) {
  support::Rng rng(seed);
  Model model;
  std::vector<Var> vars;
  LinExpr obj;
  for (int i = 0; i < n; ++i) {
    vars.push_back(model.add_binary("x" + std::to_string(i)));
    obj += static_cast<double>(rng.uniform_int(1, 9)) * vars.back();
  }
  for (int r = 0; r < k; ++r) {
    LinExpr row;
    int members = 0;
    for (int i = 0; i < n; ++i) {
      if (rng.chance(0.5)) {
        row += static_cast<double>(rng.uniform_int(1, 4)) * vars[i];
        ++members;
      }
    }
    if (members == 0) continue;
    model.add_constraint(row, Sense::kLe,
                         static_cast<double>(rng.uniform_int(2, 8)),
                         "r" + std::to_string(r));
  }
  model.set_objective(obj, ObjSense::kMaximize);
  return model;
}

/// Exact (bit-level) equality for doubles: determinism means *identical*,
/// not merely close.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

MilpResult solve_fresh(std::uint64_t seed, int n, const MilpOptions& opt) {
  Model model = hard_knapsack(n, seed);
  MilpSolver solver(model, opt);
  return solver.solve();
}

void expect_identical(const MilpResult& a, const MilpResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.status, b.status) << what;
  EXPECT_TRUE(same_bits(a.objective, b.objective))
      << what << ": objective " << a.objective << " vs " << b.objective;
  EXPECT_TRUE(same_bits(a.best_bound, b.best_bound))
      << what << ": bound " << a.best_bound << " vs " << b.best_bound;
  ASSERT_EQ(a.x.size(), b.x.size()) << what;
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    EXPECT_TRUE(same_bits(a.x[i], b.x[i])) << what << ": x[" << i << "]";
  }
  EXPECT_EQ(a.stats.nodes_explored, b.stats.nodes_explored) << what;
  EXPECT_EQ(a.stats.lp_iterations, b.stats.lp_iterations) << what;
  ASSERT_EQ(a.stats.incumbents.size(), b.stats.incumbents.size()) << what;
  for (std::size_t i = 0; i < a.stats.incumbents.size(); ++i) {
    EXPECT_TRUE(same_bits(a.stats.incumbents[i].objective,
                          b.stats.incumbents[i].objective))
        << what << ": incumbent " << i;
    EXPECT_EQ(a.stats.incumbents[i].nodes, b.stats.incumbents[i].nodes)
        << what << ": incumbent " << i;
  }
}

// threads=1 must stay the classic sequential loop: repeated solves walk
// the exact same tree and report bit-identical everything.
TEST(MilpParallel, SequentialPathBitIdenticalAcrossRuns) {
  MilpOptions opt;
  opt.threads = 1;
  const MilpResult first = solve_fresh(11, 24, opt);
  ASSERT_EQ(first.status, MilpStatus::kOptimal);
  EXPECT_EQ(first.stats.threads_used, 1);
  ASSERT_EQ(first.stats.per_worker.size(), 1u);
  EXPECT_EQ(first.stats.per_worker[0].nodes_explored,
            first.stats.nodes_explored);
  for (int run = 0; run < 2; ++run) {
    expect_identical(first, solve_fresh(11, 24, opt),
                     "run " + std::to_string(run));
  }
}

// Deterministic mode: the whole point is that the thread count changes the
// wall clock, never the search. Everything except timing must match.
TEST(MilpParallel, DeterministicModeThreadCountInvariant) {
  MilpOptions base;
  base.deterministic = true;
  base.threads = 1;
  const MilpResult one = solve_fresh(23, 24, base);
  ASSERT_EQ(one.status, MilpStatus::kOptimal);
  for (const int threads : {2, 4}) {
    MilpOptions opt = base;
    opt.threads = threads;
    const MilpResult r = solve_fresh(23, 24, opt);
    EXPECT_EQ(r.stats.threads_used, threads);
    expect_identical(one, r, std::to_string(threads) + " threads");
  }
}

// Deterministic mode is also self-consistent run to run at a fixed thread
// count (no hidden timing dependence in the epoch commit order).
TEST(MilpParallel, DeterministicModeRepeatable) {
  MilpOptions opt;
  opt.deterministic = true;
  opt.threads = 4;
  expect_identical(solve_fresh(5, 22, opt), solve_fresh(5, 22, opt),
                   "repeat");
}

// The racy (default) parallel mode may explore a different tree per run,
// but the *answer* is the answer: same optimum as sequential on a sweep of
// generated instances, and the reported point is feasible.
TEST(MilpParallel, SameOptimumAnyThreadCount) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Model seq_model = random_binary(seed * 7919u + 13u, 12, 4);
    MilpOptions seq_opt;
    seq_opt.threads = 1;
    const MilpResult seq = MilpSolver(seq_model, seq_opt).solve();
    ASSERT_EQ(seq.status, MilpStatus::kOptimal) << "seed " << seed;

    for (const int threads : {2, 4}) {
      Model model = random_binary(seed * 7919u + 13u, 12, 4);
      MilpOptions opt;
      opt.threads = threads;
      const MilpResult par = MilpSolver(model, opt).solve();
      ASSERT_EQ(par.status, MilpStatus::kOptimal)
          << "seed " << seed << " threads " << threads;
      EXPECT_NEAR(par.objective, seq.objective, 1e-6)
          << "seed " << seed << " threads " << threads;
      EXPECT_TRUE(model.is_feasible(par.x)) << "seed " << seed;
    }
  }
}

// Cooperative cancellation mid-solve: raise the stop token from the
// incumbent callback (so an incumbent provably exists) and require the
// solve to come back promptly with that incumbent, workers joined, and the
// cancellation recorded. The instance's tree must outlive its first
// incumbent by a wide margin, or the search can close before any worker
// polls the token and kOptimal is then the right answer; an unstopped
// solve checks that premise first (hard_knapsack(27, 3) explores about
// 4000 nodes after its first incumbent).
TEST(MilpParallel, CancellationReturnsBestIncumbent) {
  Model model = hard_knapsack(27, 3);
  MilpOptions opt;
  opt.threads = 4;
  opt.time_limit_sec = 300.0;  // the stop token, not the clock, ends this
  {
    MilpSolver unstopped(model, opt);
    const MilpResult full = unstopped.solve();
    ASSERT_EQ(full.status, MilpStatus::kOptimal);
    ASSERT_FALSE(full.stats.incumbents.empty());
    ASSERT_GE(full.stats.nodes_explored - full.stats.incumbents[0].nodes, 100)
        << "the tree closes too soon after its first incumbent";
  }
  std::atomic<bool> stop{false};
  opt.stop = &stop;
  std::atomic<int> incumbents{0};
  opt.on_incumbent = [&](const std::vector<double>&, double) {
    ++incumbents;
    stop.store(true);
  };
  MilpSolver solver(model, opt);
  const MilpResult r = solver.solve();  // returning == all workers joined
  EXPECT_GE(incumbents.load(), 1);
  EXPECT_TRUE(r.stats.cancelled);
  ASSERT_EQ(r.status, MilpStatus::kFeasible);
  ASSERT_TRUE(r.has_solution());
  EXPECT_TRUE(model.is_feasible(r.x));
  EXPECT_NEAR(r.objective, model.objective_value(r.x), 1e-9);
  EXPECT_LT(r.stats.wall_sec, 60.0);
}

// Worker accounting: one WorkerStats per worker, and in every mode the
// slices add up to the merged totals for a run-to-completion solve. The
// warm start, and nodes an epoch prunes as it pops them, are credited to
// worker 0.
TEST(MilpParallel, WorkerStatsSumToTotals) {
  struct Mode {
    const char* name;
    int threads;
    bool deterministic;
  };
  for (const Mode& mode : {Mode{"sequential", 1, false},
                           Mode{"free-running", 4, false},
                           Mode{"deterministic", 3, true}}) {
    Model model = hard_knapsack(24, 11);
    MilpOptions opt;
    opt.threads = mode.threads;
    opt.deterministic = mode.deterministic;
    MilpSolver solver(model, opt);
    ASSERT_TRUE(solver.set_warm_start(std::vector<double>(24, 0.0)));
    const MilpResult r = solver.solve();
    ASSERT_EQ(r.status, MilpStatus::kOptimal) << mode.name;
    EXPECT_EQ(r.stats.threads_used, mode.threads) << mode.name;
    ASSERT_EQ(r.stats.per_worker.size(),
              static_cast<std::size_t>(mode.threads))
        << mode.name;
    long nodes = 0, pruned = 0, lp_iters = 0;
    int found = 0;
    for (std::size_t w = 0; w < r.stats.per_worker.size(); ++w) {
      EXPECT_EQ(r.stats.per_worker[w].worker, static_cast<int>(w));
      nodes += r.stats.per_worker[w].nodes_explored;
      pruned += r.stats.per_worker[w].nodes_pruned;
      lp_iters += r.stats.per_worker[w].lp_iterations;
      found += r.stats.per_worker[w].incumbents_found;
    }
    EXPECT_EQ(nodes, r.stats.nodes_explored) << mode.name;
    EXPECT_EQ(pruned, r.stats.nodes_pruned) << mode.name;
    EXPECT_EQ(lp_iters, r.stats.lp_iterations) << mode.name;
    EXPECT_EQ(found, r.stats.incumbent_improvements()) << mode.name;
  }
}

// A node dropped by an injected spurious infeasibility still counts in some
// worker's slice whenever it counts in the total (the epoch loop numbers
// nodes as it pops them, before the fault is polled).
TEST(MilpParallel, WorkerStatsSumToTotalsWithDroppedNodes) {
  if (!guard::faults_compiled_in()) GTEST_SKIP() << "injector compiled out";
  struct Mode {
    const char* name;
    int threads;
    bool deterministic;
  };
  for (const Mode& mode : {Mode{"sequential", 1, false},
                           Mode{"free-running", 4, false},
                           Mode{"deterministic", 3, true}}) {
    guard::arm(guard::FaultPlan::parse("seed=8,milp.node=infeasible@0.2"));
    Model model = hard_knapsack(24, 11);
    MilpOptions opt;
    opt.threads = mode.threads;
    opt.deterministic = mode.deterministic;
    const MilpResult r = MilpSolver(model, opt).solve();
    const long dropped = guard::fire_count("milp.node");
    guard::disarm();
    EXPECT_GT(dropped, 0) << mode.name;
    EXPECT_GT(r.stats.nodes_explored, dropped) << mode.name;
    long nodes = 0, pruned = 0;
    for (const WorkerStats& ws : r.stats.per_worker) {
      nodes += ws.nodes_explored;
      pruned += ws.nodes_pruned;
    }
    EXPECT_EQ(nodes, r.stats.nodes_explored) << mode.name;
    EXPECT_EQ(pruned, r.stats.nodes_pruned) << mode.name;
  }
}

// ---------------------------------------------------------------------------
// Pinned search trees. Run-to-run identity cannot catch a change that walks
// a *different* tree consistently, so these fix the exact tree each mode
// explores on a few instances: node, LP-iteration and prune counts, the
// objective and bound bits, and the incumbent sequence. A deliberate search
// change must re-record them; a refactor must not move them.
// ---------------------------------------------------------------------------

/// hard_knapsack with conflict rows x[i] + x[i+1] <= 1 (i even) supplied
/// lazily, so integral relaxations are separated before acceptance.
LazyConstraintCallback pair_conflicts(int n) {
  return [n](const std::vector<double>& x) {
    std::vector<LazyRow> rows;
    for (int i = 0; i + 1 < n; i += 2) {
      if (x[static_cast<std::size_t>(i)] + x[static_cast<std::size_t>(i + 1)] >
          1.0 + 1e-6) {
        rows.push_back({LinExpr(Var{i}) + LinExpr(Var{i + 1}), Sense::kLe,
                        1.0, "pair" + std::to_string(i)});
      }
    }
    return rows;
  };
}

struct Pinned {
  long nodes = 0;
  long lp_iterations = 0;
  long pruned = 0;
  double objective = 0.0;
  double best_bound = 0.0;
  std::vector<std::pair<double, long>> incumbents;  // (objective, nodes)
};

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// The observed tree in the initializer syntax of Pinned, so a deliberate
/// re-record is a copy from the failure message.
std::string describe(const MilpResult& r) {
  std::string s = "{" + std::to_string(r.stats.nodes_explored) + ", " +
                  std::to_string(r.stats.lp_iterations) + ", " +
                  std::to_string(r.stats.nodes_pruned) + ", " +
                  hexfloat(r.objective) + ", " + hexfloat(r.best_bound) +
                  ", {";
  for (const IncumbentSample& inc : r.stats.incumbents) {
    s += "{" + hexfloat(inc.objective) + ", " + std::to_string(inc.nodes) +
         "}, ";
  }
  return s + "}}";
}

void expect_pinned(const MilpResult& r, const Pinned& pin,
                   const std::string& what) {
  ASSERT_EQ(r.status, MilpStatus::kOptimal) << what;
  bool same = r.stats.nodes_explored == pin.nodes &&
              r.stats.lp_iterations == pin.lp_iterations &&
              r.stats.nodes_pruned == pin.pruned &&
              same_bits(r.objective, pin.objective) &&
              same_bits(r.best_bound, pin.best_bound) &&
              r.stats.incumbents.size() == pin.incumbents.size();
  for (std::size_t i = 0; same && i < pin.incumbents.size(); ++i) {
    same = same_bits(r.stats.incumbents[i].objective,
                     pin.incumbents[i].first) &&
           r.stats.incumbents[i].nodes == pin.incumbents[i].second;
  }
  EXPECT_TRUE(same) << what << ": the search tree moved; observed "
                    << describe(r);
}

MilpOptions pinned_options(bool deterministic, int threads, int batch) {
  MilpOptions opt;
  opt.threads = threads;
  opt.deterministic = deterministic;
  opt.deterministic_batch = batch;
  return opt;
}

TEST(MilpParallelPinned, KnapsackTreePerMode) {
  const Pinned seq = {42, 546, 38, 0x1.35ffffffffffdp+8, 0x1.35ffffffffffdp+8,
                      {{0x1.3p+8, 23}, {0x1.35ffffffffffdp+8, 42}}};
  const Pinned det8 = {15, 338, 10, 0x1.3600000000001p+8,
                       0x1.3600000000001p+8, {{0x1.3600000000001p+8, 15}}};
  const Pinned det4 = {11, 248, 10, 0x1.3600000000001p+8,
                       0x1.3600000000001p+8, {{0x1.3600000000001p+8, 11}}};
  expect_pinned(solve_fresh(11, 24, pinned_options(false, 1, 8)), seq,
                "sequential");
  expect_pinned(solve_fresh(11, 24, pinned_options(true, 1, 8)), det8,
                "deterministic threads 1 batch 8");
  expect_pinned(solve_fresh(11, 24, pinned_options(true, 3, 8)), det8,
                "deterministic threads 3 batch 8");
  expect_pinned(solve_fresh(11, 24, pinned_options(true, 1, 4)), det4,
                "deterministic threads 1 batch 4");
  expect_pinned(solve_fresh(11, 24, pinned_options(true, 3, 4)), det4,
                "deterministic threads 3 batch 4");
}

TEST(MilpParallelPinned, LazyTreePerMode) {
  const Pinned seq = {87, 916, 46, 0x1.9p+7, 0x1.9p+7,
                      {{0x1.76p+7, 9}, {0x1.84p+7, 12}, {0x1.8cp+7, 43},
                       {0x1.8ep+7, 58}, {0x1.9p+7, 87}}};
  const Pinned det = {167, 1433, 49, 0x1.9p+7, 0x1.9p+7,
                      {{0x1.6ap+7, 83}, {0x1.82p+7, 87}, {0x1.88p+7, 147},
                       {0x1.9p+7, 167}}};
  const auto solve = [](const MilpOptions& opt) {
    Model model = hard_knapsack(16, 4);
    MilpSolver solver(model, opt);
    solver.set_lazy_callback(pair_conflicts(16));
    MilpResult r = solver.solve();
    EXPECT_GT(r.stats.lazy_rows_added, 0);
    return r;
  };
  expect_pinned(solve(pinned_options(false, 1, 8)), seq, "sequential");
  expect_pinned(solve(pinned_options(true, 3, 4)), det,
                "deterministic threads 3 batch 4");
}

TEST(MilpParallelPinned, WarmStartedTreePerMode) {
  const Pinned seq = {42, 546, 38, 0x1.35ffffffffffdp+8, 0x1.35ffffffffffdp+8,
                      {{0x1.5p+7, 0}, {0x1.3p+8, 23},
                       {0x1.35ffffffffffdp+8, 42}}};
  const Pinned det = {11, 248, 10, 0x1.3600000000001p+8,
                      0x1.3600000000001p+8,
                      {{0x1.5p+7, 0}, {0x1.3600000000001p+8, 11}}};
  const auto solve = [](const MilpOptions& opt) {
    Model model = hard_knapsack(24, 11);
    MilpSolver solver(model, opt);
    std::vector<double> x(24, 0.0);  // every third item: feasible, 168
    for (std::size_t i = 0; i < x.size(); i += 3) x[i] = 1.0;
    EXPECT_TRUE(solver.set_warm_start(x));
    return solver.solve();
  };
  expect_pinned(solve(pinned_options(false, 1, 8)), seq, "sequential");
  expect_pinned(solve(pinned_options(true, 3, 4)), det,
                "deterministic threads 3 batch 4");
}

// threads=0 resolves to hardware_concurrency and must report what it used.
TEST(MilpParallel, DefaultThreadsResolved) {
  MilpOptions opt;
  opt.threads = 0;
  const MilpResult r = solve_fresh(3, 18, opt);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_GE(r.stats.threads_used, 1);
  EXPECT_EQ(r.stats.per_worker.size(),
            static_cast<std::size_t>(r.stats.threads_used));
}

}  // namespace
}  // namespace letdma::milp
