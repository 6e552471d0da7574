#include "letdma/engine/engine.hpp"

#include <algorithm>

#include "letdma/engine/adapters.hpp"
#include "letdma/engine/incremental.hpp"
#include "letdma/engine/portfolio.hpp"
#include "letdma/engine/supervised.hpp"
#include "letdma/let/compiled.hpp"
#include "letdma/let/latency.hpp"
#include "letdma/let/repair.hpp"
#include "letdma/let/validate.hpp"
#include "letdma/obs/obs.hpp"
#include "letdma/support/error.hpp"

namespace letdma::engine {

const char* status_name(Status status) {
  switch (status) {
    case Status::kOptimal: return "optimal";
    case Status::kFeasible: return "feasible";
    case Status::kInfeasible: return "infeasible";
    case Status::kTimeout: return "timeout (no solution)";
  }
  return "?";
}

const char* objective_name(Objective objective) {
  switch (objective) {
    case Objective::kMinMaxLatencyRatio: return "OBJ-DEL";
    case Objective::kMinTransfers: return "OBJ-DMAT";
    case Objective::kFeasibility: return "NO-OBJ";
  }
  return "?";
}

double objective_of(const let::LetComms& comms,
                    const let::ScheduleResult& schedule,
                    Objective objective) {
  switch (objective) {
    case Objective::kFeasibility:
      return 0.0;
    case Objective::kMinTransfers:
      return static_cast<double>(schedule.s0_transfers.size());
    case Objective::kMinMaxLatencyRatio: {
      const std::vector<support::Time> wc = let::worst_case_latencies(
          comms, schedule.schedule, let::ReadinessSemantics::kProposed);
      double worst = 0.0;
      for (int task = 0; task < static_cast<int>(wc.size()); ++task) {
        worst = std::max(
            worst,
            static_cast<double>(wc[static_cast<std::size_t>(task)]) /
                static_cast<double>(
                    comms.app().task(model::TaskId{task}).period));
      }
      return worst;
    }
  }
  return 0.0;
}

bool schedule_valid(const let::LetComms& comms,
                    const let::ScheduleResult& schedule) {
  return let::validate_schedule(comms, schedule.layout, schedule.schedule)
      .ok();
}

bool SharedIncumbent::offer(const let::ScheduleResult& schedule,
                            double objective, const std::string& strategy) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (best_ && best_->objective <= objective + 1e-12) return false;
    best_ = Incumbent{schedule, objective, strategy};
    ++improvements_;
  }
  static obs::Counter incumbents("engine.incumbents");
  incumbents.add();
  obs::instant("engine.incumbent", "engine",
               {{"strategy", strategy}, {"objective", objective}});
  return true;
}

std::optional<Incumbent> SharedIncumbent::best() const {
  std::lock_guard<std::mutex> lock(mu_);
  return best_;
}

int SharedIncumbent::improvements() const {
  std::lock_guard<std::mutex> lock(mu_);
  return improvements_;
}

ResolvedWarmStart resolve_warm_start(const let::LetComms& comms,
                                     const WarmStart& warm,
                                     Objective objective,
                                     IncumbentSink* sink) {
  ResolvedWarmStart out;
  if (!warm.has_schedule()) return out;
  try {
    const let::CompiledComms compiled(comms);
    out.seed = let::warm_start(compiled, *warm.schedule, warm.diff);
  } catch (const support::Error&) {
    return out;  // untranslatable hint: proceed cold
  }
  if (!schedule_valid(comms, *out.seed)) return out;
  out.valid = true;
  out.objective = objective_of(comms, *out.seed, objective);
  if (sink != nullptr) sink->offer(*out.seed, out.objective, "warm");
  return out;
}

ScheduleOutcome expired_outcome(const IncumbentSink& sink,
                                const std::string& strategy,
                                const Budget& budget) {
  ScheduleOutcome out;
  out.strategy = strategy;
  out.cancelled = budget.cancel_requested();
  if (const std::optional<Incumbent> best = sink.best()) {
    out.status = Status::kFeasible;
    out.schedule = best->schedule;
    out.objective = best->objective;
    out.strategy = best->strategy;
  }
  return out;
}

std::unique_ptr<Scheduler> make_scheduler(const std::string& name,
                                          Objective objective,
                                          const EngineTuning& tuning) {
  if (name == "greedy") {
    GreedyEngineOptions opt;
    opt.objective = objective;
    return std::make_unique<GreedyEngine>(opt);
  }
  if (name == "ls") {
    LocalSearchEngineOptions opt;
    opt.objective = objective;
    return std::make_unique<LocalSearchEngine>(opt);
  }
  if (name == "milp") {
    MilpEngineOptions opt;
    opt.objective = objective;
    opt.milp.solver.threads = tuning.milp_threads;
    opt.milp.solver.deterministic = tuning.milp_deterministic;
    opt.milp.solver.presolve_cuts = tuning.milp_presolve_cuts;
    return std::make_unique<MilpEngine>(opt);
  }
  if (name == "portfolio") {
    PortfolioOptions opt;
    opt.objective = objective;
    opt.tuning = tuning;
    return std::make_unique<PortfolioScheduler>(opt);
  }
  if (name == "giotto") {
    return std::make_unique<GiottoEngine>(objective);
  }
  if (name == "supervised") {
    GuardOptions opt;
    opt.objective = objective;
    opt.tuning = tuning;
    return std::make_unique<SupervisedScheduler>(opt);
  }
  if (name == "incremental") {
    IncrementalOptions opt;
    opt.objective = objective;
    opt.guard.objective = objective;
    opt.guard.tuning = tuning;
    return std::make_unique<IncrementalScheduler>(opt);
  }
  throw support::PreconditionError("unknown engine scheduler: " + name);
}

ScheduleOutcome solve_with(const std::string& scheduler_name,
                           const let::LetComms& comms, Objective objective,
                           double budget_sec) {
  const auto scheduler = make_scheduler(scheduler_name, objective);
  SharedIncumbent sink;
  Budget budget;
  budget.wall_sec = budget_sec;
  return scheduler->solve(comms, budget, sink);
}

}  // namespace letdma::engine
