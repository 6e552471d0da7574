// Micro-benchmarks (E6) for the MILP substrate: simplex throughput on
// random dense LPs and branch & bound on knapsack instances.
//
// Modes:
//   ./micro_milp [google-benchmark flags]     run the harness
//   ./micro_milp --threads N ...              B&B benchmarks use N workers
//   ./micro_milp --check BASELINE             skip the harness; measure B&B
//       node throughput on the gate instance, emit metrics, and exit
//       non-zero when it regressed more than 20% below the committed
//       baseline (bench/baselines/milp_baseline.json); then the presolve
//       gate and the WATERS node-LP gate (see run_waters_gate).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_util.hpp"
#include "letdma/let/let_comms.hpp"
#include "letdma/let/milp_scheduler.hpp"
#include "letdma/milp/solver.hpp"
#include "letdma/support/rng.hpp"

using namespace letdma;

namespace {

// B&B worker count for the benchmark and check paths (--threads /
// LETDMA_MILP_THREADS; 1 = the seed's sequential solver).
int g_bb_threads = 1;

milp::Model random_lp(int n, int m, std::uint64_t seed) {
  support::Rng rng(seed);
  milp::Model model;
  std::vector<milp::Var> vars;
  milp::LinExpr obj;
  for (int j = 0; j < n; ++j) {
    vars.push_back(model.add_continuous(0.0, 10.0, "x" + std::to_string(j)));
    obj += (rng.uniform() * 2.0 - 1.0) * vars.back();
  }
  for (int i = 0; i < m; ++i) {
    milp::LinExpr row;
    for (int j = 0; j < n; ++j) {
      if (rng.chance(0.3)) row += (rng.uniform() * 4.0 - 2.0) * vars[j];
    }
    model.add_constraint(row, rng.chance(0.5) ? milp::Sense::kLe
                                              : milp::Sense::kGe,
                         rng.uniform() * 10.0, "r" + std::to_string(i));
  }
  model.set_objective(obj, milp::ObjSense::kMinimize);
  return model;
}

milp::Model knapsack(int n, std::uint64_t seed) {
  support::Rng rng(seed);
  milp::Model model;
  milp::LinExpr weight, profit;
  for (int i = 0; i < n; ++i) {
    const milp::Var x = model.add_binary("x" + std::to_string(i));
    weight += static_cast<double>(rng.uniform_int(1, 20)) * x;
    profit += static_cast<double>(rng.uniform_int(1, 30)) * x;
  }
  model.add_constraint(weight, milp::Sense::kLe,
                       static_cast<double>(5 * n), "cap");
  model.set_objective(profit, milp::ObjSense::kMaximize);
  return model;
}

void BM_SimplexRandomLp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const milp::Model model = random_lp(n, n, 42);
  const milp::SimplexSolver solver(model);
  long iters = 0;
  for (auto _ : state) {
    const milp::LpResult r = solver.solve();
    benchmark::DoNotOptimize(r.objective);
    iters += r.iterations;
  }
  state.counters["simplex_iters"] =
      benchmark::Counter(static_cast<double>(iters),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SimplexRandomLp)->Arg(20)->Arg(50)->Arg(100)->Arg(200);

void BM_BranchAndBoundKnapsack(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  long nodes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    milp::Model model = knapsack(n, 7);  // fresh model: lazy rows mutate it
    state.ResumeTiming();
    milp::MilpOptions opt;
    opt.time_limit_sec = 60;
    opt.threads = g_bb_threads;
    milp::MilpSolver solver(model, opt);
    const milp::MilpResult r = solver.solve();
    benchmark::DoNotOptimize(r.objective);
    nodes += r.stats.nodes_explored;
  }
  state.counters["bb_nodes"] = benchmark::Counter(
      static_cast<double>(nodes), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BranchAndBoundKnapsack)->Arg(10)->Arg(16)->Arg(22);

void BM_ModelBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const milp::Model m = random_lp(n, n, 3);
    benchmark::DoNotOptimize(m.num_constraints());
  }
}
BENCHMARK(BM_ModelBuild)->Arg(50)->Arg(200);

/// Strongly-correlated knapsack (profit = weight + 5, capacity = half the
/// total weight) — the classic hard family for branch & bound, so the gate
/// measures real tree search rather than a handful of root LPs.
milp::Model gate_knapsack(int n, std::uint64_t seed) {
  support::Rng rng(seed);
  milp::Model model;
  milp::LinExpr weight, profit;
  double total_weight = 0.0;
  for (int i = 0; i < n; ++i) {
    const double w = static_cast<double>(rng.uniform_int(1, 40));
    const milp::Var x = model.add_binary("x" + std::to_string(i));
    weight += w * x;
    profit += (w + 5.0) * x;
    total_weight += w;
  }
  model.add_constraint(weight, milp::Sense::kLe,
                       std::floor(total_weight / 2.0), "cap");
  model.set_objective(profit, milp::ObjSense::kMaximize);
  return model;
}

/// Presolve tree-size gate: the same batch of gate instances solved with
/// the root clique/cover cuts off and on. Both runs must prove the same
/// optimum on every instance; the aggregate explored-node reduction must
/// clear 20%. Node counts are deterministic (sequential solver, cut
/// generation is input-deterministic), so this needs no repeats.
int run_presolve_gate() {
  constexpr int kSize = 30;
  constexpr int kSeeds = 10;
  long nodes_off = 0;
  long nodes_on = 0;
  long cuts_added = 0;
  long fixed_vars = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    double objectives[2] = {0.0, 0.0};
    for (const bool cuts : {false, true}) {
      milp::Model model = gate_knapsack(kSize, seed);
      milp::MilpOptions opt;
      opt.time_limit_sec = 60;
      opt.threads = 1;
      opt.presolve_cuts = cuts;
      milp::MilpSolver solver(model, opt);
      const milp::MilpResult res = solver.solve();
      if (res.status != milp::MilpStatus::kOptimal) {
        std::fprintf(stderr, "presolve gate seed=%d (cuts=%d) not optimal\n",
                     seed, cuts ? 1 : 0);
        return 2;
      }
      objectives[cuts ? 1 : 0] = res.objective;
      if (cuts) {
        nodes_on += res.stats.nodes_explored;
        cuts_added += res.stats.presolve_cuts_added;
        fixed_vars += res.stats.presolve_fixed;
      } else {
        nodes_off += res.stats.nodes_explored;
      }
    }
    // The extra rows perturb LP pivot order, so compare the proven optima
    // numerically, not bitwise.
    if (std::fabs(objectives[0] - objectives[1]) >
        1e-6 * std::max(1.0, std::fabs(objectives[0]))) {
      std::fprintf(stderr,
                   "presolve gate seed=%d changed the optimum: %.17g "
                   "(cuts off) vs %.17g (cuts on)\n",
                   seed, objectives[0], objectives[1]);
      return 2;
    }
  }
  const double reduction =
      nodes_off > 0
          ? 1.0 - static_cast<double>(nodes_on) /
                      static_cast<double>(nodes_off)
          : 0.0;
  std::printf("presolve cuts on knapsack(%d) x %d seeds: %ld -> %ld nodes "
              "(%ld cut rows, %ld fixed vars), reduction %.1f%%\n",
              kSize, kSeeds, nodes_off, nodes_on, cuts_added, fixed_vars,
              100.0 * reduction);
  bench::append_metrics(
      "micro_milp", "presolve-gate",
      {{"nodes_off", static_cast<std::int64_t>(nodes_off)},
       {"nodes_on", static_cast<std::int64_t>(nodes_on)},
       {"presolve_node_reduction", reduction},
       {"presolve_cuts", static_cast<std::int64_t>(cuts_added)},
       {"presolve_fixed", static_cast<std::int64_t>(fixed_vars)}});
  if (reduction < 0.20) {
    std::printf("check: presolve node reduction %.1f%% below the 20%% "
                "floor: FAIL\n",
                100.0 * reduction);
    return 1;
  }
  std::printf("check: presolve node reduction %.1f%% vs 20%% floor: ok\n",
              100.0 * reduction);
  return 0;
}

/// The WATERS node-LP gate: LP iterations per non-root node of OBJ-DEL on
/// the paper's instance (alpha = 0.2, sequential B&B to a fixed node cap),
/// as a share of the root's cold solve. Node LPs re-solve warm from the
/// root's tableau, so a child costs a few percent of the root; a share
/// above the committed ceiling means node LPs went back to solving from
/// scratch. The counts are deterministic, so the gate needs no repeats.
int run_waters_gate(const std::string& baseline_path) {
  std::ifstream in(baseline_path);
  std::stringstream buf;
  buf << in.rdbuf();
  double cap = 0.0, ceiling = 0.0;
  if (!bench::json_number(buf.str(), "waters_node_cap", &cap) ||
      !bench::json_number(buf.str(), "waters_nonroot_lp_share_max",
                          &ceiling) ||
      cap < 2 || ceiling <= 0.0) {
    std::fprintf(stderr, "baseline %s has no WATERS node-LP gate fields\n",
                 baseline_path.c_str());
    return 1;
  }
  const auto app = bench::waters_with_alpha(0.2);
  if (!app) return 2;
  const let::LetComms comms(*app);
  const auto solve = [&](long node_cap) {
    let::MilpSchedulerOptions o;
    o.objective = let::MilpObjective::kMinLatencyRatio;
    o.solver.threads = 1;
    o.solver.time_limit_sec = 300;
    o.solver.node_limit = node_cap;
    return let::MilpScheduler(comms, o).solve().stats;
  };
  const milp::MilpStats root = solve(1);
  const milp::MilpStats tree = solve(static_cast<long>(cap));
  if (root.nodes_explored != 1 || tree.nodes_explored < 2) {
    std::fprintf(stderr, "WATERS gate explored %ld / %ld nodes\n",
                 root.nodes_explored, tree.nodes_explored);
    return 2;
  }
  const double per_node =
      static_cast<double>(tree.lp_iterations - root.lp_iterations) /
      static_cast<double>(tree.nodes_explored - 1);
  const double share = per_node / static_cast<double>(root.lp_iterations);
  std::printf("WATERS OBJ-DEL %ld nodes: root LP %ld iterations, %.1f per "
              "non-root node (%ld warm fallbacks)\n",
              tree.nodes_explored, root.lp_iterations, per_node,
              tree.warm_fallbacks);
  bench::append_metrics(
      "micro_milp", "waters-node-lp",
      {{"nodes", static_cast<std::int64_t>(tree.nodes_explored)},
       {"root_lp_iterations", static_cast<std::int64_t>(root.lp_iterations)},
       {"nonroot_lp_iterations_per_node", per_node},
       {"nonroot_lp_share", share},
       {"warm_fallbacks", static_cast<std::int64_t>(tree.warm_fallbacks)}});
  const bool ok = share <= ceiling;
  std::printf("check: WATERS non-root LP share %.3f vs ceiling %.3f: %s\n",
              share, ceiling, ok ? "ok" : "REGRESSION");
  return ok ? 0 : 1;
}

/// Nightly regression gate: branch-and-bound node throughput summed over a
/// fixed batch of knapsack instances, repeat-and-best to filter scheduler
/// noise. The total node count is deterministic for the sequential solver,
/// so nodes/sec moves only when the solver itself got slower (or faster).
int run_check(const std::string& baseline_path) {
  using Clock = std::chrono::steady_clock;
  constexpr int kSize = 30;
  constexpr int kSeeds = 10;
  constexpr int kRepeats = 5;
  long nodes = -1;
  double best_sec = 1e300;
  for (int r = 0; r < kRepeats + 1; ++r) {  // first run is warm-up
    long total_nodes = 0;
    double sec = 0.0;
    for (int seed = 1; seed <= kSeeds; ++seed) {
      milp::Model model = gate_knapsack(kSize, seed);
      milp::MilpOptions opt;
      opt.time_limit_sec = 60;
      opt.threads = g_bb_threads;
      // Throughput is measured with the presolve cut rows off so the
      // committed nodes/sec baseline keeps meaning "the tree walker got
      // slower", not "the tree changed shape"; the cut families get their
      // own tree-size gate below.
      opt.presolve_cuts = false;
      milp::MilpSolver solver(model, opt);
      const auto t0 = Clock::now();
      const milp::MilpResult res = solver.solve();
      sec += std::chrono::duration<double>(Clock::now() - t0).count();
      if (res.status != milp::MilpStatus::kOptimal) {
        std::fprintf(stderr, "gate instance seed=%d did not solve\n", seed);
        return 2;
      }
      total_nodes += res.stats.nodes_explored;
    }
    if (r == 0) continue;
    if (nodes >= 0 && total_nodes != nodes && g_bb_threads == 1) {
      std::fprintf(stderr, "non-deterministic node count: %ld vs %ld\n",
                   total_nodes, nodes);
      return 2;
    }
    nodes = total_nodes;
    best_sec = std::min(best_sec, sec);
  }
  const double nodes_per_sec =
      best_sec > 0.0 ? static_cast<double>(nodes) / best_sec : 0.0;
  std::printf("knapsack(%d) x %d seeds: %ld nodes in %.3fs best-of-%d = "
              "%.0f nodes/sec (%d thread%s)\n",
              kSize, kSeeds, nodes, best_sec, kRepeats, nodes_per_sec,
              g_bb_threads, g_bb_threads == 1 ? "" : "s");
  bench::append_metrics(
      "micro_milp", "knapsack-gate",
      {{"nodes", static_cast<std::int64_t>(nodes)},
       {"best_sec", best_sec},
       {"nodes_per_sec", nodes_per_sec},
       {"threads", static_cast<std::int64_t>(g_bb_threads)}});
  bench::append_histogram_metrics("micro_milp");

  const int rc = bench::check_baseline(baseline_path, "nodes_per_sec",
                                       "nodes/sec", nodes_per_sec);
  const int presolve_rc = run_presolve_gate();
  const int waters_rc = run_waters_gate(baseline_path);
  for (const int code : {rc, presolve_rc, waters_rc}) {
    if (code != 0) return code;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  g_bb_threads = bench::milp_threads();
  std::string baseline_path;
  // Strip our flags before google-benchmark sees (and rejects) them.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      g_bb_threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (!baseline_path.empty()) return run_check(baseline_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
