// Local-search throughput harness: candidate evaluations per second on the
// WATERS case study, the seed rebuild-per-candidate search
// (tests/support/ls_reference.hpp) against the library's compiled-instance
// delta evaluator. Both must agree exactly (evaluations, improvements,
// objective bits) — this binary aborts with a diagnostic if they ever
// diverge, so the perf numbers can never come from paths that drifted
// apart.
//
// Modes:
//   ./micro_localsearch                      print the table, emit metrics
//   ./micro_localsearch --check BASELINE     additionally compare the
//       measured OBJ-DEL speedup against the committed baseline and exit
//       non-zero when it regressed by more than 20%.
//
// Unknown --flags are rejected (exit 2): a typo'd gate flag must never
// turn a CI gate into a silent no-op.
//
// Metrics go to the LETDMA_METRICS destination (CI points this at
// BENCH_localsearch.json); the speedup ratios are machine-independent
// enough to gate on, absolute evals/sec are informational.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "letdma/let/compiled.hpp"
#include "letdma/let/local_search.hpp"
#include "ls_reference.hpp"

namespace {

using namespace letdma;
using Clock = std::chrono::steady_clock;

struct Sample {
  let::LocalSearchResult result;
  double best_sec;       // fastest of the timed repeats
  double evals_per_sec;  // evaluations / best_sec
};

/// Runs one full (converged) improvement pass `repeats` times and keeps
/// the fastest wall time — the standard repeat-and-best protocol that
/// filters scheduler noise out of short runs.
template <class Search>
Sample measure(const Search& run, int repeats) {
  let::LocalSearchResult first = run();  // warm-up, also the reported result
  double best_sec = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    const let::LocalSearchResult rr = run();
    const double sec = std::chrono::duration<double>(Clock::now() - t0).count();
    best_sec = std::min(best_sec, sec);
    if (rr.evaluations != first.evaluations) {
      std::fprintf(stderr, "non-deterministic run: %d vs %d evaluations\n",
                   rr.evaluations, first.evaluations);
      std::exit(2);
    }
  }
  const double rate = best_sec > 0.0 ? first.evaluations / best_sec : 0.0;
  return Sample{std::move(first), best_sec, rate};
}

const char* goal_name(let::LocalSearchGoal goal) {
  return goal == let::LocalSearchGoal::kMinTransfers ? "OBJ-DMAT" : "OBJ-DEL";
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      // A typo'd flag must fail loudly, not run the default mode under a
      // green exit code while CI believes a gate was applied.
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  const auto app = waters::make_waters_app();
  const let::LetComms comms(*app);
  const let::CompiledComms compiled(comms);
  constexpr int kRepeats = 5;

  std::printf("local-search throughput on WATERS (%zu comms at s0)\n",
              comms.comms_at_s0().size());
  std::printf("%-10s %-10s %10s %6s %12s %10s\n", "goal", "engine", "evals",
              "moves", "evals/sec", "speedup");

  double del_speedup = 0.0;
  for (const let::LocalSearchGoal goal :
       {let::LocalSearchGoal::kMinMaxLatencyRatio,
        let::LocalSearchGoal::kMinTransfers}) {
    const let::ScheduleResult start =
        goal == let::LocalSearchGoal::kMinTransfers
            ? let::GreedyScheduler::best_transfer_count(comms)
            : let::GreedyScheduler::best_latency_ratio(comms);
    let::LocalSearchOptions opt;
    opt.goal = goal;
    // Convergence-bounded runs: both searches walk the identical
    // accepted-move trajectory to the same local optimum, so the
    // evaluation counts match.
    opt.max_evaluations = 1 << 20;
    opt.max_improvements = 1 << 20;
    const Sample ref = measure(
        [&] { return let::reference::improve(comms, start, opt); }, kRepeats);
    const Sample fast = measure(
        [&] { return let::improve_schedule(compiled, start, opt); }, kRepeats);

    // The equivalence gate: identical trajectories or the numbers are void.
    if (ref.result.evaluations != fast.result.evaluations ||
        ref.result.improvements != fast.result.improvements ||
        ref.result.objective != fast.result.objective) {
      std::fprintf(stderr,
                   "searches diverged under %s: reference %d/%d/%.17g vs "
                   "compiled %d/%d/%.17g\n",
                   goal_name(goal), ref.result.evaluations,
                   ref.result.improvements, ref.result.objective,
                   fast.result.evaluations, fast.result.improvements,
                   fast.result.objective);
      return 2;
    }

    const double speedup =
        ref.evals_per_sec > 0.0 ? fast.evals_per_sec / ref.evals_per_sec
                                : 0.0;
    if (goal == let::LocalSearchGoal::kMinMaxLatencyRatio) {
      del_speedup = speedup;
    }
    std::printf("%-10s %-10s %10d %6d %12.0f %10s\n", goal_name(goal),
                "reference", ref.result.evaluations, ref.result.improvements,
                ref.evals_per_sec, "1.0x");
    std::printf("%-10s %-10s %10d %6d %12.0f %9.1fx\n", goal_name(goal),
                "compiled", fast.result.evaluations, fast.result.improvements,
                fast.evals_per_sec, speedup);

    const std::string config =
        goal == let::LocalSearchGoal::kMinTransfers ? "waters-dmat"
                                                    : "waters-del";
    bench::append_metrics(
        "micro_localsearch", config,
        {{"evaluations", static_cast<std::int64_t>(ref.result.evaluations)},
         {"improvements",
          static_cast<std::int64_t>(ref.result.improvements)},
         {"objective", ref.result.objective},
         {"reference_evals_per_sec", ref.evals_per_sec},
         {"compiled_evals_per_sec", fast.evals_per_sec},
         {"speedup", speedup}});
  }

  bench::append_histogram_metrics("micro_localsearch");

  if (!baseline_path.empty()) {
    return bench::check_baseline(baseline_path, "speedup",
                                 "OBJ-DEL speedup", del_speedup);
  }
  return 0;
}
