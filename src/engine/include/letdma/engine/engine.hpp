// letdma::engine — one composable scheduling layer over the competing
// schedulers grown around the paper's MILP.
//
// The repo has four ways to produce a (layout, transfer order)
// configuration — greedy construction, local-search improvement, the
// branch-and-bound MILP, and loading a saved schedule — and before this
// layer every bench/example/test hand-wired its own call sequence. The
// engine normalizes them behind one interface:
//
//   Scheduler::solve(const LetComms&, const Budget&, IncumbentSink&)
//       -> ScheduleOutcome
//
// with uniform status semantics (proved optimal / feasible / proved
// infeasible / timeout-with-no-incumbent), a shared wall-clock budget with
// cooperative cancellation (an atomic stop token polled inside the
// local-search evaluation loop and the MILP node loop), and an
// IncumbentSink through which strategies publish every improving schedule
// as they find it. The sink is what makes strategies composable: the
// portfolio races several strategies against one SharedIncumbent, and the
// MILP warm-starts from whatever the cheap strategies have already
// published instead of recomputing its own greedy seed.
//
// Concrete schedulers live in adapters.hpp (greedy / local search / MILP),
// portfolio.hpp (the parallel anytime racer) and batch.hpp (many-instance
// evaluation on a thread pool).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "letdma/let/greedy.hpp"
#include "letdma/model/diff.hpp"

namespace letdma::engine {

enum class Status {
  kOptimal,     // proved optimal (schedule present)
  kFeasible,    // best-effort schedule present (heuristic or incumbent)
  kInfeasible,  // proved that no configuration exists
  kTimeout,     // budget exhausted with no incumbent (and no proof)
};

const char* status_name(Status status);

/// Engine-level goal. Objectives are always *engine-sense*: computed from
/// the decoded configuration by objective_of(), so values are comparable
/// across strategies (the MILP's model-sense objective is not exposed).
enum class Objective {
  kMinMaxLatencyRatio,  // OBJ-DEL  (Eq. 5): max_i lambda_i / T_i
  kMinTransfers,        // OBJ-DMAT (Eq. 4 proxy): number of s0 transfers
  kFeasibility,         // NO-OBJ: any configuration meeting every gamma_i
};

const char* objective_name(Objective objective);

/// Engine objective value of a configuration (lower is better; 0 under
/// kFeasibility so any feasible schedule ties any other).
double objective_of(const let::LetComms& comms,
                    const let::ScheduleResult& schedule, Objective objective);

/// True when the configuration passes validate_schedule (all LET
/// properties at every instant, acquisition deadlines included).
bool schedule_valid(const let::LetComms& comms,
                    const let::ScheduleResult& schedule);

/// A shared wall-clock budget with cooperative cancellation. The clock
/// starts when a Scheduler::solve call begins (each solve measures its own
/// elapsed time); `stop` is an optional externally owned token that any
/// strategy must honour promptly — the portfolio raises it to cancel
/// losing workers.
///
/// `deadline` is an optional *absolute* cutoff on top of the relative
/// wall_sec: a serve-layer request deadline survives being re-based by the
/// supervised chain (each level restarts its own relative clock, which
/// would otherwise let a degrading chain overrun the caller's patience).
/// The epoch sentinel (default-constructed time_point) means "no
/// deadline".
struct Budget {
  double wall_sec = 60.0;
  const std::atomic<bool>* stop = nullptr;
  std::chrono::steady_clock::time_point deadline{};

  bool cancel_requested() const {
    return stop != nullptr && stop->load(std::memory_order_relaxed);
  }

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point{};
  }

  /// Seconds left: the tighter of (wall_sec - elapsed_sec) and the time
  /// to `deadline`. May be negative once spent — callers treat <= 0 as
  /// exhausted.
  double remaining_sec(double elapsed_sec = 0.0) const {
    double rem = wall_sec - elapsed_sec;
    if (has_deadline()) {
      const double to_deadline =
          std::chrono::duration<double>(deadline -
                                        std::chrono::steady_clock::now())
              .count();
      rem = std::min(rem, to_deadline);
    }
    return rem;
  }
};

/// An improving schedule published by a strategy, with its engine
/// objective and the strategy that produced it.
struct Incumbent {
  let::ScheduleResult schedule;
  double objective = 0.0;
  std::string strategy;
};

/// Where strategies publish improving schedules. offer() must be safe to
/// call from any worker thread of a portfolio.
class IncumbentSink {
 public:
  virtual ~IncumbentSink() = default;
  /// Offers a schedule with its engine objective. Returns true when it
  /// strictly improved the best known objective and was kept.
  virtual bool offer(const let::ScheduleResult& schedule, double objective,
                     const std::string& strategy) = 0;
  /// Snapshot of the best incumbent so far (copies under the hood).
  virtual std::optional<Incumbent> best() const = 0;
};

/// Mutex-protected IncumbentSink — the portfolio's shared incumbent, also
/// fine for single-threaded use. Every accepted offer emits an
/// "engine.incumbent" obs instant and bumps the "engine.incumbents"
/// counter, so incumbent-publication instants land in traces.
class SharedIncumbent : public IncumbentSink {
 public:
  bool offer(const let::ScheduleResult& schedule, double objective,
             const std::string& strategy) override;
  std::optional<Incumbent> best() const override;
  /// Number of accepted (strictly improving) offers.
  int improvements() const;

 private:
  mutable std::mutex mu_;
  std::optional<Incumbent> best_;
  int improvements_ = 0;
};

/// The uniform result of any engine solve.
struct ScheduleOutcome {
  Status status = Status::kTimeout;
  /// Present when status is kOptimal or kFeasible.
  std::optional<let::ScheduleResult> schedule;
  double objective = 0.0;  // engine objective of `schedule`
  /// Strategy that produced `schedule` ("greedy", "ls", "milp", or the
  /// winning strategy of a portfolio).
  std::string strategy;
  double wall_sec = 0.0;
  /// The solve exited early because the budget's stop token was raised.
  bool cancelled = false;

  bool feasible() const { return schedule.has_value(); }
};

/// An optional prior state handed to a solve: the schedule of a previous
/// (or structurally close) instance plus the model diff mapping that
/// instance onto the one being solved. `diff == nullptr` with a schedule
/// means "same instance" (identity diff). Both pointers are borrowed and
/// must outlive the solve call.
///
/// Every adapter accepts the hint with uniform semantics: the hint is
/// translated onto the target instance, validated, and — when it holds —
/// published into the sink as strategy "warm" before anything else runs.
/// Greedy then ignores it, the local search repairs from it instead of a
/// greedy cold start, and the MILP takes it as its incumbent bound
/// immediately (no grace wait for a cheap strategy). Because the warm
/// incumbent lands in the sink first, a zero-budget solve returns the
/// previous schedule through expired_outcome instead of nothing.
struct WarmStart {
  const let::ScheduleResult* schedule = nullptr;
  const model::ApplicationDiff* diff = nullptr;

  bool has_schedule() const { return schedule != nullptr; }
};

/// A warm-start hint translated onto a concrete instance.
struct ResolvedWarmStart {
  /// Present when translation+legalization succeeded structurally.
  std::optional<let::ScheduleResult> seed;
  /// True when `seed` additionally passes validate_schedule (deadlines
  /// included) — only then is it offered to the sink / usable as served
  /// output without a repair pass.
  bool valid = false;
  double objective = 0.0;  // engine objective of `seed` when valid
};

/// Translates `warm` onto `comms` (via let::warm_start) and, when the
/// translated schedule fully validates, offers it into `sink` under the
/// strategy name "warm". Returns the resolution either way; a hint without
/// a schedule resolves to an empty ResolvedWarmStart. Never throws on a
/// bad hint — translation failures simply leave `seed` empty.
ResolvedWarmStart resolve_warm_start(const let::LetComms& comms,
                                     const WarmStart& warm,
                                     Objective objective, IncumbentSink* sink);

/// A strategy behind the uniform interface. Implementations keep no
/// per-solve state in the object, so one Scheduler instance may run
/// concurrent solve() calls (BatchRunner relies on this).
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual const char* name() const = 0;
  /// Solves with an optional warm-start hint (WarmStart{} = cold solve).
  virtual ScheduleOutcome solve(const let::LetComms& comms,
                                const Budget& budget, IncumbentSink& sink,
                                const WarmStart& warm) = 0;
  /// Cold-solve convenience; forwards to the four-argument overload.
  ScheduleOutcome solve(const let::LetComms& comms, const Budget& budget,
                        IncumbentSink& sink) {
    return solve(comms, budget, sink, WarmStart{});
  }
};

/// Well-defined outcome for a budget that is already exhausted on entry
/// (wall_sec <= 0, or the stop token raised): the sink's best incumbent as
/// kFeasible when one exists, else kTimeout. Every scheduler returns this
/// promptly instead of hanging or racing when handed a spent budget.
ScheduleOutcome expired_outcome(const IncumbentSink& sink,
                                const std::string& strategy,
                                const Budget& budget);

/// Cross-cutting solver knobs the factory threads into every scheduler it
/// builds (directly, or through portfolio/supervised children). Today this
/// carries the MILP branch-and-bound parallelism knobs exposed by
/// `letdma_tool --threads` and the benches.
struct EngineTuning {
  /// Worker threads for the MILP branch-and-bound. 0 = solver default
  /// (one per hardware thread); 1 = the sequential seed node loop.
  int milp_threads = 0;
  /// Reproducible epoch-synchronized parallel MILP search (see
  /// milp::MilpOptions::deterministic).
  bool milp_deterministic = false;
  /// Install the MILP root presolve's clique/cover cuts (see
  /// milp::MilpOptions::presolve_cuts).
  bool milp_presolve_cuts = true;
};

/// Factory for the engine names exposed by tools and benches:
/// "greedy" | "ls" | "milp" | "portfolio" | "giotto" | "supervised" |
/// "incremental". Throws PreconditionError on an unknown name.
std::unique_ptr<Scheduler> make_scheduler(
    const std::string& name,
    Objective objective = Objective::kMinMaxLatencyRatio,
    const EngineTuning& tuning = {});

/// Convenience: one standalone solve with a private SharedIncumbent.
ScheduleOutcome solve_with(const std::string& scheduler_name,
                           const let::LetComms& comms, Objective objective,
                           double budget_sec);

}  // namespace letdma::engine
