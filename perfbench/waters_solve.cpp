// waters-solve: the paper's pipeline on WATERS 2019 at alpha = 0.2.
//
//   LetComms -> greedy -> local search -> MILP (NO-OBJ, OBJ-DEL, OBJ-DMAT)
//   -> guard::certify of every schedule -> lambda of the OBJ-DEL schedule
//
// The instance is the paper's and does not depend on the seed. NO-OBJ is
// solved to optimality; OBJ-DEL runs the sequential B&B and OBJ-DMAT the
// deterministic-epoch B&B on two workers, both to a fixed node cap, so
// every count (nodes, LP iterations, gaps) repeats exactly and only the
// wall times move.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "common.hpp"
#include "letdma/guard/certify.hpp"
#include "letdma/let/local_search.hpp"
#include "letdma/let/milp_scheduler.hpp"
#include "letdma/model/io.hpp"

namespace perfbench {
namespace {

using namespace letdma;

constexpr double kAlpha = 0.2;
constexpr long kNodeCapDel = 4;
constexpr long kNodeCapDmat = 4;
constexpr int kDmatEpoch = 4;  // nodes per deterministic epoch
constexpr int kDmatThreads = 2;
// Set-up samples come in blocks of kSetupBlock loads: one block before the
// first pipeline and one after every untraced pipeline. A load takes some
// 40 us, and the median of one block moved by 25% from process to process
// with the host's state; blocks spread over the run see what the run sees.
constexpr int kSetupBlock = 50;

struct MilpRun {
  const char* key = "";
  milp::MilpStatus status = milp::MilpStatus::kLimit;
  double solve_s = 0.0;
  long nodes = 0;
  long lp_iterations = 0;
  double gap = 0.0;
  double first_incumbent_s = -1.0;
  int presolve_fixed = 0;
  int presolve_cuts = 0;
};

struct Pipeline {
  double wall_s = 0.0;
  int ls_evaluations = 0;
  MilpRun no_obj, obj_del, obj_dmat;
  double objective_del = 0.0;  // recomputed on the OBJ-DEL schedule
  int transfers_dmat = 0;
};

bool certified(Tracer* tr, std::uint64_t req, int parent,
               const let::LetComms& comms, const let::ScheduleResult& s) {
  Scoped span(tr, "guard.certify", req, parent);
  return guard::certify(comms, s).certified();
}

MilpRun solve_milp(Tracer* tr, std::uint64_t req, int parent,
                   const let::LetComms& comms, let::MilpObjective objective,
                   const char* key, long node_cap, int threads,
                   bool deterministic, Result& out,
                   let::MilpScheduleResult* result) {
  let::MilpSchedulerOptions o;
  o.objective = objective;
  // Node caps, not wall clocks, bound the search, so the explored tree is
  // the same on every run; the time limit is only a safety net.
  o.solver.time_limit_sec = 150.0;
  o.solver.node_limit = node_cap;
  o.solver.threads = threads;
  o.solver.deterministic = deterministic;
  o.solver.deterministic_batch = kDmatEpoch;
  std::unique_ptr<let::MilpScheduler> milp;
  {
    Scoped span(tr, "milp.build", req, parent);
    milp = std::make_unique<let::MilpScheduler>(comms, o);
  }
  const auto t0 = Clock::now();
  {
    Scoped span(tr, std::string("milp.solve.") + key, req, parent);
    *result = milp->solve();
  }
  MilpRun run;
  run.key = key;
  run.solve_s = seconds_since(t0);
  run.status = result->status;
  run.nodes = result->stats.nodes_explored;
  run.lp_iterations = result->stats.lp_iterations;
  run.first_incumbent_s = result->stats.first_incumbent_sec;
  run.presolve_fixed = result->stats.presolve_fixed;
  run.presolve_cuts = result->stats.presolve_cuts_added;
  if (result->status == milp::MilpStatus::kOptimal) {
    run.gap = 0.0;
  } else if (!result->stats.gap_timeline.empty()) {
    run.gap = result->stats.gap_timeline.back().gap;
  } else {
    run.gap = std::numeric_limits<double>::infinity();
  }
  if (!result->feasible()) {
    out.fail(std::string("MILP ") + key + " returned no schedule");
  } else if (!certified(tr, req, parent, comms, *result->schedule)) {
    out.fail(std::string("MILP ") + key + " schedule failed certification");
  }
  return run;
}

Pipeline run_pipeline(const model::Application& app, Tracer* tr,
                      std::uint64_t req, Result& out) {
  Pipeline p;
  const auto t0 = Clock::now();
  Scoped top(tr, "pipeline", req);
  std::unique_ptr<let::LetComms> comms;
  {
    Scoped span(tr, "let.comms_build", req, top.id());
    comms = std::make_unique<let::LetComms>(app);
  }
  const let::ScheduleResult greedy = [&] {
    Scoped span(tr, "let.greedy", req, top.id());
    return let::GreedyScheduler::best_latency_ratio(*comms);
  }();
  const let::LocalSearchResult ls = [&] {
    Scoped span(tr, "let.ls", req, top.id());
    return let::improve_schedule(*comms, greedy);
  }();
  p.ls_evaluations = ls.evaluations;
  if (!certified(tr, req, top.id(), *comms, ls.schedule)) {
    out.fail("local-search schedule failed certification");
  }

  let::MilpScheduleResult r;
  p.no_obj = solve_milp(tr, req, top.id(), *comms, let::MilpObjective::kNone,
                        "no_obj", 1'000'000, 1, false, out, &r);
  if (r.status != milp::MilpStatus::kOptimal) {
    out.fail(std::string("NO-OBJ status ") + bench::status_name(r.status) +
             ", expected optimal");
  }

  p.obj_del = solve_milp(tr, req, top.id(), *comms,
                         let::MilpObjective::kMinLatencyRatio, "obj_del",
                         kNodeCapDel, 1, false, out, &r);
  if (r.feasible()) {
    Scoped span(tr, "let.latency", req, top.id());
    p.objective_del = recompute_objective_del(*comms, *r.schedule);
    // The MILP's lambda_i bound the true latencies from above, so the
    // recomputed ratio may not exceed the reported objective.
    if (p.objective_del > r.objective + 1e-9 * std::max(1.0, r.objective)) {
      out.fail("OBJ-DEL recomputed " + std::to_string(p.objective_del) +
               " exceeds reported " + std::to_string(r.objective));
    }
  }

  p.obj_dmat = solve_milp(tr, req, top.id(), *comms,
                          let::MilpObjective::kMinTransfers, "obj_dmat",
                          kNodeCapDmat, kDmatThreads, true, out, &r);
  if (r.feasible()) {
    p.transfers_dmat = static_cast<int>(r.schedule->s0_transfers.size());
    if (p.transfers_dmat > std::lround(r.objective)) {
      out.fail("OBJ-DMAT schedule has " + std::to_string(p.transfers_dmat) +
               " transfers, objective says " + std::to_string(r.objective));
    }
  }
  for (const MilpRun* m : {&p.no_obj, &p.obj_del, &p.obj_dmat}) {
    if (!std::isfinite(m->gap)) out.fail(std::string(m->key) + " has no gap");
  }
  p.wall_s = seconds_since(t0);
  return p;
}

double nodes_per_s(const Pipeline& p) {
  return static_cast<double>(p.obj_del.nodes + p.obj_dmat.nodes) /
         (p.obj_del.solve_s + p.obj_dmat.solve_s);
}

/// Set-up: the instance as a user brings it — WATERS model text, parsed,
/// with acquisition deadlines derived for alpha by response-time analysis.
std::unique_ptr<model::Application> load_instance(const std::string& text) {
  auto app = model::read_application(text);
  const auto sens = analysis::acquisition_deadlines(*app, kAlpha);
  if (!sens.feasible) return nullptr;
  analysis::apply_acquisition_deadlines(*app, sens.gamma);
  return app;
}

}  // namespace

Result run_waters_solve(const Options& opt) {
  Result out;
  const std::string text = model::write_application(*waters::make_waters_app());
  std::unique_ptr<model::Application> app;
  std::vector<double> setup;
  const auto load_block = [&] {
    for (int i = 0; i < kSetupBlock; ++i) {
      const auto t0 = Clock::now();
      app = load_instance(text);
      setup.push_back(seconds_since(t0));
    }
  };
  load_block();
  const auto reference = bench::waters_with_alpha(kAlpha);
  if (!app || !reference ||
      model::write_application(*app) != model::write_application(*reference)) {
    out.fail("loaded WATERS instance differs from bench::waters_with_alpha");
    return out;
  }
  out.record["instance_digest"] =
      "\"" + hex64(fnv1a(model::write_application(*app))) + "\"";
  out.record["node_cap_obj_del"] = std::to_string(kNodeCapDel);
  out.record["node_cap_obj_dmat"] = std::to_string(kNodeCapDmat);
  out.record["obj_dmat_threads"] = std::to_string(kDmatThreads);

  if (opt.digest) {
    const Pipeline p = run_pipeline(*app, nullptr, 0, out);
    out.attempted = 1;
    out.record["counts"] =
        "{\"ls_evaluations\":" + std::to_string(p.ls_evaluations) +
        ",\"nodes_obj_del\":" + std::to_string(p.obj_del.nodes) +
        ",\"nodes_obj_dmat\":" + std::to_string(p.obj_dmat.nodes) +
        ",\"lp_iterations_no_obj\":" + std::to_string(p.no_obj.lp_iterations) +
        ",\"lp_iterations_obj_del\":" +
        std::to_string(p.obj_del.lp_iterations) +
        ",\"lp_iterations_obj_dmat\":" +
        std::to_string(p.obj_dmat.lp_iterations) +
        ",\"gap_obj_del\":" + json_number(p.obj_del.gap) +
        ",\"gap_obj_dmat\":" + json_number(p.obj_dmat.gap) +
        ",\"objective_del\":" + json_number(p.objective_del) +
        ",\"transfers_obj_dmat\":" + std::to_string(p.transfers_dmat) + "}";
    return out;
  }

  // Untraced pipelines fill the run (half of it in the traced run, whose
  // other half repeats them with spans on).
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<Pipeline> runs;
  const auto window = Clock::now();
  do {
    runs.push_back(run_pipeline(*app, nullptr, runs.size(), out));
    load_block();
  } while (seconds_since(window) < untraced_s);
  out.attempted = static_cast<std::int64_t>(runs.size());

  std::vector<double> wall, nps;
  double busy = 0.0, objective = 0.0;
  for (const Pipeline& p : runs) {
    wall.push_back(p.wall_s);
    nps.push_back(nodes_per_s(p));
    busy += p.wall_s;
    objective += p.objective_del;
  }
  const Pipeline& first = runs.front();
  out.record["pipelines"] = std::to_string(runs.size());
  out.record["setup_samples"] = std::to_string(setup.size());
  out.record["solve_s"] = json_number(median(wall));
  out.record["milp_nodes_per_s"] = json_number(median(nps));
  out.record["gap_obj_del"] = json_number(first.obj_del.gap);
  out.record["gap_obj_dmat"] = json_number(first.obj_dmat.gap);

  if (!opt.trace) {
    out.add("setup_s", median(setup), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("req_per_s", static_cast<double>(runs.size()) / busy, "1/s");
    out.add("latency_p50_ms", median(wall) * 1e3, "ms");
    out.add("latency_tail_ms", percentile(wall, 100) * 1e3, "ms");
    out.add("objective_del", objective / static_cast<double>(runs.size()),
            "ratio");
    return out;
  }

  Tracer tracer;
  std::vector<Pipeline> traced;
  const auto traced_window = Clock::now();
  do {
    traced.push_back(run_pipeline(*app, &tracer, 1000 + traced.size(), out));
  } while (seconds_since(traced_window) < opt.seconds / 2);
  out.attempted += static_cast<std::int64_t>(traced.size());

  const auto layers = tracer.layers();
  out.layers = layers;
  const double n = static_cast<double>(traced.size());
  const auto per_pipeline_ms = [&](const std::string& name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.busy_us / n / 1e3;
  };
  std::vector<double> traced_wall;
  double ls_evals = 0, lp_iters = 0;
  for (const Pipeline& p : traced) {
    traced_wall.push_back(p.wall_s);
    ls_evals += p.ls_evaluations;
    lp_iters += static_cast<double>(p.no_obj.lp_iterations +
                                    p.obj_del.lp_iterations +
                                    p.obj_dmat.lp_iterations);
  }
  const double solve_ms = per_pipeline_ms("milp.solve.no_obj") +
                          per_pipeline_ms("milp.solve.obj_del") +
                          per_pipeline_ms("milp.solve.obj_dmat");
  const Pipeline& t = traced.front();
  out.add("waters.solve_s", median(wall), "s");
  out.add("milp.nodes_per_s", median(nps), "nodes/s");
  out.add("milp.gap.obj_del", t.obj_del.gap, "ratio");
  out.add("milp.gap.obj_dmat", t.obj_dmat.gap, "ratio");
  out.add("let.comms_build_ms", per_pipeline_ms("let.comms_build"), "ms");
  out.add("let.greedy_ms", per_pipeline_ms("let.greedy"), "ms");
  out.add("let.ls_ms", per_pipeline_ms("let.ls"), "ms");
  out.add("let.ls_evaluations", ls_evals / n, "count");
  out.add("milp.build_ms", per_pipeline_ms("milp.build"), "ms");
  out.add("guard.certify_ms", per_pipeline_ms("guard.certify"), "ms");
  out.add("let.latency_ms", per_pipeline_ms("let.latency"), "ms");
  out.add("milp.solve_ms.no_obj", per_pipeline_ms("milp.solve.no_obj"), "ms");
  out.add("milp.solve_ms.obj_del", per_pipeline_ms("milp.solve.obj_del"),
          "ms");
  out.add("milp.solve_ms.obj_dmat", per_pipeline_ms("milp.solve.obj_dmat"),
          "ms");
  out.add("milp.solve_share", solve_ms / (per_pipeline_ms("pipeline")),
          "ratio");
  out.add("milp.nodes.obj_del", static_cast<double>(t.obj_del.nodes),
          "count");
  out.add("milp.nodes.obj_dmat", static_cast<double>(t.obj_dmat.nodes),
          "count");
  out.add("milp.lp_iters_per_node.obj_del",
          static_cast<double>(t.obj_del.lp_iterations) /
              static_cast<double>(std::max(1L, t.obj_del.nodes)),
          "count");
  out.add("milp.lp_iters_per_node.obj_dmat",
          static_cast<double>(t.obj_dmat.lp_iterations) /
              static_cast<double>(std::max(1L, t.obj_dmat.nodes)),
          "count");
  out.add("milp.us_per_lp_iter", solve_ms * n * 1e3 / lp_iters, "us");
  out.add("milp.first_incumbent_s.obj_del", t.obj_del.first_incumbent_s, "s");
  out.add("milp.presolve_fixed", t.obj_del.presolve_fixed, "count");
  out.add("milp.presolve_cuts", t.obj_del.presolve_cuts, "count");
  out.add("bench.trace_overhead_share",
          (median(traced_wall) - median(wall)) / median(wall), "ratio");
  if (!tracer.write_json(opt.work_dir + "/waters-solve.trace.json")) {
    out.fail("cannot write the span dump");
  }
  out.record["layers"] = "\"" + opt.work_dir + "/waters-solve.trace.json\"";
  return out;
}

}  // namespace perfbench
