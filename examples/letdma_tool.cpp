// Command-line front end: load an application description, schedule it
// through the engine layer, and print the configuration, latencies and
// validation verdict.
//
//   letdma_tool <app-file> [greedy|ls|milp|portfolio|giotto|supervised]
//               [none|dmat|del] [timeout-seconds]
//   letdma_tool <app-file> load <schedule-file>
//
// Flags (anywhere in the argument list):
//   --engine <name>   scheduling engine: greedy | ls | milp | portfolio |
//                     giotto | supervised (same as the positional
//                     scheduler; the flag wins)
//   --budget-ms <ms>  wall-clock budget for the solve (overrides the
//                     positional timeout, which is in seconds; 0 is legal
//                     and returns promptly with whatever is already known)
//   --certify         independently certify the result with letdma::guard
//                     and print the certificate; an uncertified schedule
//                     makes the exit status non-zero
//   --faults <spec>   arm the deterministic fault injector (same syntax as
//                     the LETDMA_FAULTS environment variable, e.g.
//                     "seed=7,chaos"); the env var is honoured when the
//                     flag is absent
//   --save <file>     write the resulting schedule
//   --trace <file>    write a Chrome trace-event JSON (open in Perfetto or
//                     chrome://tracing): engine/solver phase spans and
//                     incumbent events plus the simulated per-core/DMA
//                     schedule
//   --metrics <file>  append the full event stream as JSONL
//   --flight <file>   flight-recorder dump destination: when a supervised
//                     solve demotes, fails certification, or retries, the
//                     recent-event ring is appended here as JSONL (same as
//                     setting LETDMA_FLIGHT_DUMP; the flag wins)
//   --threads <n>     MILP branch-and-bound worker threads (0 = one per
//                     hardware thread, 1 = the sequential node loop);
//                     applies to the milp engine and to the milp strategy
//                     inside portfolio/supervised
//   --no-presolve-cuts  skip installing the MILP root presolve's
//                     clique/cover cut rows (node counts grow; results
//                     are unchanged)
//   --fingerprint     print the 128-bit canonical structural fingerprint
//                     of the model (the letdma::serve cache key) and exit;
//                     isomorphic models — renamed tasks/labels, reordered
//                     directives, renumbered cores — print the same hash.
//                     With -v the canonical form itself goes to stderr
//   --diff <file>     incremental re-scheduling: solve <app-file> through
//                     the supervised chain, read the changed model from
//                     <file>, print the model diff (summary, magnitude,
//                     structural distance) and repair the previous
//                     schedule onto it with the incremental engine instead
//                     of re-solving cold; the repaired result is certified
//                     and the certificate printed. --save writes the
//                     repaired schedule
//   --deterministic   reproducible parallel MILP search (epoch-synchronized
//                     node batches; the result is thread-count independent)
//   -v                verbose: mirror events to stderr
//
// Any other argument starting with "-" (except "-" itself) is a usage
// error, exit status 2.
//
// With "-" (or no arguments) a built-in demo model (the Fig. 1 system) is
// used. See src/model/include/letdma/model/io.hpp for the application
// format and src/let/include/letdma/let/schedule_io.hpp for schedules.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "letdma/engine/adapters.hpp"
#include "letdma/engine/engine.hpp"
#include "letdma/engine/incremental.hpp"
#include "letdma/guard/certify.hpp"
#include "letdma/guard/faults.hpp"
#include "letdma/let/footprint.hpp"
#include "letdma/let/milp_scheduler.hpp"
#include "letdma/let/schedule_io.hpp"
#include "letdma/let/validate.hpp"
#include "letdma/model/canonical.hpp"
#include "letdma/model/diff.hpp"
#include "letdma/model/io.hpp"
#include "letdma/obs/obs.hpp"
#include "letdma/obs/sinks.hpp"
#include "letdma/sim/trace_export.hpp"
#include "letdma/support/error.hpp"
#include "letdma/support/table.hpp"

using namespace letdma;

namespace {

const char* kDemoApp = R"(# Fig. 1 demo system
platform cores=2 odp_ns=3360 oisr_ns=10000 wc=1 cpu_wc=4 cpu_oh_ns=200
task name=tau1 period_ns=10000000 wcet_ns=2000000 core=0
task name=tau3 period_ns=20000000 wcet_ns=4000000 core=0
task name=tau5 period_ns=40000000 wcet_ns=8000000 core=0
task name=tau2 period_ns=5000000 wcet_ns=1000000 core=1
task name=tau4 period_ns=20000000 wcet_ns=4000000 core=1
task name=tau6 period_ns=40000000 wcet_ns=8000000 core=1
label name=lA bytes=2000 writer=tau1 readers=tau2
label name=lB bytes=4000 writer=tau3 readers=tau4
label name=lC bytes=8000 writer=tau5 readers=tau6
label name=lD bytes=1000 writer=tau2 readers=tau1
label name=lE bytes=3000 writer=tau4 readers=tau3
label name=lF bytes=6000 writer=tau6 readers=tau5
)";

int usage() {
  std::fprintf(
      stderr,
      "usage: letdma_tool [app-file] "
      "[greedy|ls|milp|portfolio|giotto|supervised] "
      "[none|dmat|del] [timeout-seconds]\n"
      "       [--engine <name>] [--budget-ms <ms>] [--certify] "
      "[--faults <spec>]\n"
      "       [--save <file>] [--trace <file>] [--metrics <file>]\n"
      "       [--flight <file>] [--threads <n>]\n"
      "       [--deterministic] [--no-presolve-cuts]\n"
      "       [--fingerprint] [--diff <after-app-file>] [-v]\n");
  return 2;
}

/// The solver knobs the flags set, shared by the --diff and main paths.
engine::EngineTuning make_tuning(const std::string& threads_flag,
                                 bool deterministic, bool presolve_cuts) {
  engine::EngineTuning tuning;
  if (!threads_flag.empty()) {
    tuning.milp_threads = std::atoi(threads_flag.c_str());
  }
  tuning.milp_deterministic = deterministic;
  tuning.milp_presolve_cuts = presolve_cuts;
  return tuning;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> pos;
  std::string trace_path, metrics_path, save_path, flight_path, diff_path;
  std::string engine_flag, budget_ms_flag, faults_flag, threads_flag;
  bool presolve_cuts_flag = true;
  bool verbose = false;
  bool certify_flag = false;
  bool deterministic_flag = false;
  bool fingerprint_flag = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto value = [&](std::string* dst) {
      if (a + 1 >= argc) return false;
      *dst = argv[++a];
      return true;
    };
    if (arg == "--trace") {
      if (!value(&trace_path)) return usage();
    } else if (arg == "--metrics") {
      if (!value(&metrics_path)) return usage();
    } else if (arg == "--save") {
      if (!value(&save_path)) return usage();
    } else if (arg == "--flight") {
      if (!value(&flight_path)) return usage();
    } else if (arg == "--engine") {
      if (!value(&engine_flag)) return usage();
    } else if (arg == "--budget-ms") {
      if (!value(&budget_ms_flag)) return usage();
    } else if (arg == "--certify") {
      certify_flag = true;
    } else if (arg == "--threads") {
      if (!value(&threads_flag)) return usage();
    } else if (arg == "--no-presolve-cuts") {
      presolve_cuts_flag = false;
    } else if (arg == "--deterministic") {
      deterministic_flag = true;
    } else if (arg == "--fingerprint") {
      fingerprint_flag = true;
    } else if (arg == "--diff") {
      if (!value(&diff_path)) return usage();
    } else if (arg == "--faults") {
      if (!value(&faults_flag)) return usage();
    } else if (arg == "-v") {
      verbose = true;
    } else if (arg.size() > 1 && arg[0] == '-') {
      return usage();
    } else {
      pos.push_back(arg);
    }
  }

  std::string text = kDemoApp;
  if (!pos.empty() && pos[0] != "-") {
    std::ifstream in(pos[0]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", pos[0].c_str());
      return 2;
    }
    std::ostringstream os;
    os << in.rdbuf();
    text = os.str();
  }
  const std::string scheduler =
      !engine_flag.empty() ? engine_flag
                           : (pos.size() > 1 ? pos[1] : "greedy");
  const std::string objective = pos.size() > 2 ? pos[2] : "del";
  double timeout = pos.size() > 3 ? std::atof(pos[3].c_str()) : 30.0;
  if (!budget_ms_flag.empty()) {
    timeout = std::atof(budget_ms_flag.c_str()) / 1000.0;
  }
  if (timeout < 0) return usage();  // 0 is a legal (already-spent) budget

  // Arm the fault injector: the explicit flag wins over LETDMA_FAULTS.
  try {
    if (!faults_flag.empty()) {
      if (!guard::faults_compiled_in()) {
        std::fprintf(stderr,
                     "warning: --faults given but the injector is compiled "
                     "out (LETDMA_ENABLE_FAULTS=OFF)\n");
      }
      guard::arm(guard::FaultPlan::parse(faults_flag));
    } else {
      guard::arm_from_env();
    }
  } catch (const support::Error& e) {
    std::fprintf(stderr, "bad fault spec: %s\n", e.what());
    return 2;
  }

  // The supervised chain picks the flight-dump destination up from the
  // environment, which keeps the engine factory signature unchanged.
  if (!flight_path.empty()) setenv("LETDMA_FLIGHT_DUMP", flight_path.c_str(), 1);

  // Observability sinks, attached before any scheduling work so solver
  // phase spans and incumbent events are captured.
  obs::Registry& reg = obs::Registry::instance();
  std::shared_ptr<obs::ChromeTraceSink> trace_sink;
  std::shared_ptr<obs::JsonlMetricsSink> metrics_sink;
  if (!trace_path.empty()) {
    trace_sink = std::make_shared<obs::ChromeTraceSink>();
    reg.attach(trace_sink);
  }
  if (!metrics_path.empty()) {
    try {
      metrics_sink = std::make_shared<obs::JsonlMetricsSink>(metrics_path);
    } catch (const support::Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    reg.attach(metrics_sink);
  }
  if (verbose) {
    reg.set_log_threshold(obs::Level::kDebug);
    reg.attach(std::make_shared<obs::StderrLogSink>());
  }

  std::unique_ptr<model::Application> app;
  try {
    app = model::read_application(text);
  } catch (const support::Error& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 2;
  }
  if (fingerprint_flag) {
    const model::Canonicalization canon = model::canonicalize(*app);
    std::printf("%s\n", canon.fingerprint.to_hex().c_str());
    if (verbose) {
      std::fprintf(stderr, "canonical form (%s):\n%s",
                   canon.exact ? "exact" : "inexact", canon.text.c_str());
    }
    return 0;
  }
  let::LetComms comms(*app);
  if (comms.comms_at_s0().empty()) {
    std::printf("no inter-core LET communications; nothing to schedule\n");
    return 0;
  }

  // --diff: incremental re-scheduling. Solve the base model through the
  // supervised chain, then repair its schedule onto the changed model
  // instead of re-solving cold.
  if (!diff_path.empty()) {
    engine::Objective eng_obj;
    if (objective == "none") eng_obj = engine::Objective::kFeasibility;
    else if (objective == "dmat") eng_obj = engine::Objective::kMinTransfers;
    else if (objective == "del") eng_obj = engine::Objective::kMinMaxLatencyRatio;
    else return usage();

    std::ifstream in(diff_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", diff_path.c_str());
      return 2;
    }
    std::ostringstream os;
    os << in.rdbuf();
    std::unique_ptr<model::Application> after;
    try {
      after = model::read_application(os.str());
    } catch (const support::Error& e) {
      std::fprintf(stderr, "parse error in %s: %s\n", diff_path.c_str(),
                   e.what());
      return 2;
    }

    const model::ApplicationDiff d = model::diff(*app, *after);
    std::printf("diff: %s (magnitude %.2f, structural distance %.4f)\n",
                d.summary().c_str(), model::magnitude(d),
                model::structural_distance(*app, *after));

    engine::GuardOptions gopt;
    gopt.objective = eng_obj;
    gopt.tuning =
        make_tuning(threads_flag, deterministic_flag, presolve_cuts_flag);
    const auto [base_out, base_record] =
        engine::solve_supervised(comms, gopt, timeout);
    if (!base_out.feasible()) {
      std::printf("base solve: no schedule (%s)\n",
                  engine::status_name(base_out.status));
      return 1;
    }
    std::printf("base solve: %s via %s, %s = %.4g, %.2fs\n",
                engine::status_name(base_out.status),
                base_out.strategy.c_str(), engine::objective_name(eng_obj),
                base_out.objective, base_out.wall_sec);

    let::LetComms after_comms(*after);
    if (after_comms.comms_at_s0().empty()) {
      std::printf("changed model has no inter-core LET communications; "
                  "nothing to schedule\n");
      return 0;
    }
    engine::IncrementalOptions iopt;
    iopt.objective = eng_obj;
    iopt.guard = gopt;
    engine::IncrementalScheduler incremental(iopt);
    engine::SharedIncumbent sink;
    engine::WarmStart warm;
    warm.schedule = &*base_out.schedule;
    warm.diff = &d;
    engine::Budget budget;
    budget.wall_sec = timeout;
    const engine::ScheduleOutcome out =
        incremental.solve(after_comms, budget, sink, warm);
    if (!out.feasible()) {
      std::printf("repair: no schedule (%s)\n",
                  engine::status_name(out.status));
      return 1;
    }
    const engine::IncrementalRecord& rec = incremental.last_record();
    std::printf("repair: %s via %s (%s), %s = %.4g, %.3fs, "
                "%d improvement(s)\n",
                engine::status_name(out.status), out.strategy.c_str(),
                rec.repair_served ? "repair path" : "supervised fallback",
                engine::objective_name(eng_obj), out.objective, out.wall_sec,
                rec.repair_improvements);
    const guard::Certificate cert =
        engine::certify_outcome(after_comms, out, eng_obj);
    std::printf("certificate: %s\n", cert.summary().c_str());
    if (!save_path.empty()) {
      std::ofstream outf(save_path);
      if (!outf) {
        std::fprintf(stderr, "cannot write %s\n", save_path.c_str());
        return 2;
      }
      outf << let::write_schedule(*after, *out.schedule);
      std::printf("repaired schedule saved to %s\n", save_path.c_str());
    }
    return cert.certified() ? 0 : 1;
  }

  std::unique_ptr<let::ScheduleResult> result;
  if (scheduler == "load") {
    std::ifstream in(objective);  // pos[2] is the schedule file here
    if (!in) {
      std::fprintf(stderr, "cannot open schedule %s\n", objective.c_str());
      return 2;
    }
    std::ostringstream os;
    os << in.rdbuf();
    try {
      result = std::make_unique<let::ScheduleResult>(
          let::read_schedule(comms, os.str()));
    } catch (const support::Error& e) {
      std::fprintf(stderr, "schedule parse error: %s\n", e.what());
      return 2;
    }
  } else {
    engine::Objective eng_obj;
    if (objective == "none") eng_obj = engine::Objective::kFeasibility;
    else if (objective == "dmat") eng_obj = engine::Objective::kMinTransfers;
    else if (objective == "del") eng_obj = engine::Objective::kMinMaxLatencyRatio;
    else return usage();

    const engine::EngineTuning tuning =
        make_tuning(threads_flag, deterministic_flag, presolve_cuts_flag);

    std::unique_ptr<engine::Scheduler> sched;
    if (scheduler == "milp" && verbose) {
      // The only engine knob the factory does not expose: solver logging.
      engine::MilpEngineOptions mo;
      mo.objective = eng_obj;
      mo.milp.solver.log = true;
      mo.milp.solver.threads = tuning.milp_threads;
      mo.milp.solver.deterministic = tuning.milp_deterministic;
      mo.milp.solver.presolve_cuts = tuning.milp_presolve_cuts;
      sched = std::make_unique<engine::MilpEngine>(mo);
    } else {
      try {
        sched = engine::make_scheduler(scheduler, eng_obj, tuning);
      } catch (const support::Error&) {
        return usage();
      }
    }

    engine::SharedIncumbent sink;
    engine::Budget budget;
    budget.wall_sec = timeout;
    const engine::ScheduleOutcome out = sched->solve(comms, budget, sink);
    if (!out.feasible()) {
      std::printf("engine %s: no schedule (%s)\n", scheduler.c_str(),
                  engine::status_name(out.status));
      return 1;
    }
    std::printf("engine %s: %s, strategy %s, %s = %.4g, %.2fs, "
                "%d incumbent improvement(s)\n",
                scheduler.c_str(), engine::status_name(out.status),
                out.strategy.c_str(), engine::objective_name(eng_obj),
                out.objective, out.wall_sec, sink.improvements());
    result = std::make_unique<let::ScheduleResult>(*out.schedule);
  }

  std::printf("transfers at s0: %zu\n", result->s0_transfers.size());
  for (std::size_t g = 0; g < result->s0_transfers.size(); ++g) {
    const let::DmaTransfer& t = result->s0_transfers[g];
    std::printf("  d%-2zu %s %6lld B :", g + 1,
                t.dir == let::Direction::kWrite ? "W" : "R",
                static_cast<long long>(t.bytes));
    for (const let::Communication& c : t.comms) {
      std::printf(" %s", let::to_string(*app, c).c_str());
    }
    std::printf("\n");
  }
  const auto wc = let::worst_case_latencies(
      comms, result->schedule, let::ReadinessSemantics::kProposed);
  support::TextTable table({"task", "lambda", "lambda/T"});
  for (int task = 0; task < static_cast<int>(wc.size()); ++task) {
    const auto lam = wc[static_cast<std::size_t>(task)];
    const model::Task& t = app->task(model::TaskId{task});
    table.add_row({t.name, support::format_time(lam),
                   support::fmt_double(static_cast<double>(lam) /
                                           static_cast<double>(t.period),
                                       4)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\naddress map:\n%s",
              let::render_address_map(result->layout).c_str());

  if (!save_path.empty()) {
    std::ofstream outf(save_path);
    if (!outf) {
      std::fprintf(stderr, "cannot write %s\n", save_path.c_str());
      return 2;
    }
    outf << let::write_schedule(*app, *result);
    std::printf("schedule saved to %s\n", save_path.c_str());
  }

  const auto report =
      let::validate_schedule(comms, result->layout, result->schedule);
  std::printf("validation: %s\n", report.summary().c_str());

  bool certified_ok = true;
  if (certify_flag) {
    const guard::Certificate cert = guard::certify(comms, *result);
    std::printf("certificate: %s\n", cert.summary().c_str());
    certified_ok = cert.certified();
  }

  bool io_error = false;
  if (trace_sink != nullptr) {
    // Simulate the resulting schedule so the trace carries the Fig.-1
    // style per-core/DMA timeline next to the solver events.
    sim::ProtocolSimulator simulator(comms, &result->schedule, {});
    sim::emit_trace_events(*app, simulator.run());
    reg.detach(trace_sink);
    if (trace_sink->write_file(trace_path)) {
      std::printf("trace written to %s (%zu events); open in "
                  "https://ui.perfetto.dev\n",
                  trace_path.c_str(), trace_sink->size());
    } else {
      io_error = true;
    }
  }
  if (metrics_sink != nullptr) {
    reg.detach(metrics_sink);
    std::printf("metrics appended to %s\n", metrics_path.c_str());
  }
  return report.ok() && certified_ok && !io_error ? 0 : 1;
}
