// Shared helpers for the paper-reproduction benchmark harnesses.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "letdma/analysis/rta.hpp"
#include "letdma/baseline/giotto.hpp"
#include "letdma/engine/engine.hpp"
#include "letdma/let/latency.hpp"
#include "letdma/let/milp_scheduler.hpp"
#include "letdma/let/validate.hpp"
#include "letdma/model/canonical.hpp"
#include "letdma/model/generator.hpp"
#include "letdma/obs/histogram.hpp"
#include "letdma/obs/json.hpp"
#include "letdma/obs/obs.hpp"
#include "letdma/support/table.hpp"
#include "letdma/waters/waters.hpp"

namespace letdma::bench {

/// MILP time budget per configuration, overridable for quick runs:
///   LETDMA_MILP_TIMEOUT=10 ./fig2_latency_ratios
inline double milp_timeout_sec(double fallback = 45.0) {
  if (const char* env = std::getenv("LETDMA_MILP_TIMEOUT")) {
    const double v = std::atof(env);
    if (v > 0) return v;
  }
  return fallback;
}

/// MILP worker-thread count for the benches, overridable for scaling runs:
///   LETDMA_MILP_THREADS=4 ./table1_milp
/// (harnesses also accept --threads N, which wins over the environment).
inline int milp_threads(int fallback = 1) {
  if (const char* env = std::getenv("LETDMA_MILP_THREADS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

/// Builds the WATERS application with acquisition deadlines for `alpha`.
/// Returns nullptr when the sensitivity procedure is infeasible.
inline std::unique_ptr<model::Application> waters_with_alpha(double alpha) {
  auto app = waters::make_waters_app();
  const auto sens = analysis::acquisition_deadlines(*app, alpha);
  if (!sens.feasible) return nullptr;
  analysis::apply_acquisition_deadlines(*app, sens.gamma);
  return app;
}

// --- corpus generation (shared by serve_replay and incremental_repair) ----

inline std::vector<int> random_permutation(int n, std::mt19937_64& rng) {
  std::vector<int> perm(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  std::shuffle(perm.begin(), perm.end(), rng);
  return perm;
}

/// Small harmonic instances: tight T* keeps per-request certification in
/// the microsecond range, which is what a 10k req/s cache-hit path needs.
inline std::unique_ptr<model::Application> make_replay_base(
    std::uint64_t seed) {
  model::GeneratorOptions opt;
  opt.num_cores = 3;
  opt.num_tasks = 8;
  opt.num_labels = 10;
  opt.total_utilization = 0.3;
  opt.period_choices = {support::ms(10), support::ms(20), support::ms(40)};
  opt.seed = seed;
  return model::generate_application(opt);
}

/// A random isomorphic duplicate of `base` — tasks, labels and cores
/// renumbered (model::permute_application renames to match). The
/// production traffic shape the solve cache collapses onto one key.
inline std::unique_ptr<model::Application> permuted_duplicate(
    const model::Application& base, std::mt19937_64& rng) {
  return model::permute_application(
      base, random_permutation(base.num_tasks(), rng),
      random_permutation(base.num_labels(), rng),
      random_permutation(base.platform().num_cores(), rng));
}

/// A copy of `base` with `k` labels' sizes perturbed (each by a factor in
/// [0.5, 2], never a no-op) — a seeded small-diff stream for the
/// incremental-repair path. Tasks and the label topology are unchanged, so
/// model::diff reports exactly `k` changed labels.
inline std::unique_ptr<model::Application> perturb_labels(
    const model::Application& base, int k, std::mt19937_64& rng) {
  auto out = std::make_unique<model::Application>(base.platform());
  for (int t = 0; t < base.num_tasks(); ++t) {
    const model::Task& task = base.task(model::TaskId{t});
    const model::TaskId id =
        out->add_task(task.name, task.period, task.wcet, task.core,
                      task.priority);
    if (task.acquisition_deadline.has_value()) {
      out->set_acquisition_deadline(id, *task.acquisition_deadline);
    }
  }
  std::vector<int> which = random_permutation(base.num_labels(), rng);
  which.resize(static_cast<std::size_t>(
      std::min(k, base.num_labels())));
  std::sort(which.begin(), which.end());
  std::uniform_int_distribution<int> quarters(2, 8);  // x0.5 .. x2
  for (int l = 0; l < base.num_labels(); ++l) {
    const model::Label& label = base.label(model::LabelId{l});
    std::int64_t bytes = label.size_bytes;
    if (std::binary_search(which.begin(), which.end(), l)) {
      bytes = std::max<std::int64_t>(1, bytes * quarters(rng) / 4);
      if (bytes == label.size_bytes) ++bytes;
    }
    out->add_label(label.name, bytes, label.writer, label.readers);
  }
  out->finalize();
  return out;
}

inline const char* objective_name(let::MilpObjective obj) {
  switch (obj) {
    case let::MilpObjective::kNone: return "NO-OBJ";
    case let::MilpObjective::kMinTransfers: return "OBJ-DMAT";
    case let::MilpObjective::kMinLatencyRatio: return "OBJ-DEL";
  }
  return "?";
}

inline const char* status_name(milp::MilpStatus s) {
  switch (s) {
    case milp::MilpStatus::kOptimal: return "optimal";
    case milp::MilpStatus::kFeasible: return "timeout (incumbent)";
    case milp::MilpStatus::kInfeasible: return "infeasible";
    case milp::MilpStatus::kUnbounded: return "unbounded";
    case milp::MilpStatus::kLimit: return "timeout (no solution)";
  }
  return "?";
}

/// Max worst-case latency over period across all communicating tasks —
/// the OBJ-DEL measure every sweep reports (previously copy-pasted into
/// each bench).
inline double max_latency_ratio(const model::Application& app,
                                const std::vector<model::Time>& wc) {
  double worst = 0.0;
  for (int task = 0; task < static_cast<int>(wc.size()); ++task) {
    worst = std::max(
        worst, static_cast<double>(wc[static_cast<std::size_t>(task)]) /
                   static_cast<double>(app.task(model::TaskId{task}).period));
  }
  return worst;
}

/// One engine solve with a private incumbent — the "deadlines -> comms ->
/// schedule -> validate" preamble every bench used to hand-roll. The
/// returned outcome's schedule (when present) is already validated by the
/// engine adapters.
inline engine::ScheduleOutcome run_engine(const let::LetComms& comms,
                                          const std::string& scheduler,
                                          engine::Objective objective,
                                          double budget_sec) {
  return engine::solve_with(scheduler, comms, objective, budget_sec);
}

/// Destination of the machine-readable benchmark metrics stream:
///   LETDMA_METRICS=/tmp/run.jsonl ./table1_milp
/// defaults to bench_metrics.jsonl in the working directory; set
/// LETDMA_METRICS to the empty string to disable emission.
inline std::string metrics_path() {
  if (const char* env = std::getenv("LETDMA_METRICS")) return env;
  return "bench_metrics.jsonl";
}

/// Appends `{"bench":...,"config":...,<fields>}` as one JSONL line so
/// future runs have a perf trajectory to diff against.
inline void append_metrics(const std::string& bench,
                           const std::string& config,
                           const std::vector<obs::Arg>& fields) {
  const std::string path = metrics_path();
  if (path.empty()) return;
  std::string line = "{\"bench\":";
  obs::json::append_string(line, bench);
  line += ",\"config\":";
  obs::json::append_string(line, config);
  for (const obs::Arg& f : fields) {
    line += ",";
    obs::json::append_string(line, f.key);
    line += ":";
    obs::json::append_value(line, f.value);
  }
  line += "}\n";
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), f);
  std::fclose(f);
}

/// Appends the uniform engine fields for an outcome to a metrics record.
/// The MILP thread count rides along so rows from 1-thread and N-thread
/// runs of the same bench/config stay distinguishable.
inline void append_engine_metrics(const std::string& bench,
                                  const std::string& config,
                                  const engine::ScheduleOutcome& out,
                                  const engine::EngineTuning& tuning = {}) {
  std::vector<obs::Arg> fields = {
      {"status", std::string(engine::status_name(out.status))},
      {"strategy", out.strategy},
      {"objective", out.objective},
      {"wall_sec", out.wall_sec},
      {"cancelled", out.cancelled},
      {"milp_threads", static_cast<std::int64_t>(tuning.milp_threads)},
  };
  if (out.schedule) {
    fields.push_back(
        {"transfers",
         static_cast<std::int64_t>(out.schedule->s0_transfers.size())});
  }
  append_metrics(bench, config, fields);
}

/// MILP-run convenience: records the outcome *and* the solve behaviour
/// (incumbent timeline, final gap) for trajectory comparisons.
inline void append_milp_metrics(const std::string& bench,
                                const std::string& config,
                                const let::MilpScheduleResult& r) {
  std::vector<obs::Arg> fields = {
      {"status", std::string(status_name(r.status))},
      {"objective", r.objective},
      {"transfers", static_cast<std::int64_t>(r.dma_transfers_at_s0)},
      {"wall_sec", r.stats.wall_sec},
      {"threads", static_cast<std::int64_t>(r.stats.threads_used)},
      {"nodes", r.stats.nodes_explored},
      {"nodes_pruned", r.stats.nodes_pruned},
      {"lp_iterations", r.stats.lp_iterations},
      {"lazy_rows", static_cast<std::int64_t>(r.stats.lazy_rows_added)},
      {"separation_rounds",
       static_cast<std::int64_t>(r.stats.separation_rounds)},
      {"presolve_fixed", static_cast<std::int64_t>(r.stats.presolve_fixed)},
      {"presolve_cuts",
       static_cast<std::int64_t>(r.stats.presolve_cuts_added)},
      {"first_incumbent_sec", r.stats.first_incumbent_sec},
      {"improvements",
       static_cast<std::int64_t>(r.stats.incumbent_improvements())},
  };
  if (!r.stats.gap_timeline.empty()) {
    fields.push_back({"final_gap", r.stats.gap_timeline.back().gap});
  }
  // The incumbent timeline rides along as a JSON array string so one
  // line stays one observation.
  std::string timeline = "[";
  for (std::size_t i = 0; i < r.stats.incumbents.size(); ++i) {
    const milp::IncumbentSample& s = r.stats.incumbents[i];
    if (i > 0) timeline += ",";
    timeline += "[";
    obs::json::append_number(timeline, s.t_sec);
    timeline += ",";
    obs::json::append_number(timeline, s.objective);
    timeline += "]";
  }
  timeline += "]";
  fields.push_back({"incumbent_timeline", timeline});
  append_metrics(bench, config, fields);
}

/// Appends one "histogram" metrics row per non-empty registry histogram —
/// how the latency percentiles every solve records reach the metrics
/// stream (and from there letdma_report) with a uniform schema.
inline void append_histogram_metrics(const std::string& bench) {
  obs::Registry& reg = obs::Registry::instance();
  for (const std::string& name : reg.histogram_names()) {
    const obs::HistogramSnapshot s = obs::snapshot_of(*reg.histogram_cell(name));
    if (s.count == 0) continue;
    append_metrics(bench, "histogram",
                   {{"hist", name},
                    {"count", s.count},
                    {"mean", s.mean()},
                    {"p50", s.p50},
                    {"p90", s.p90},
                    {"p99", s.p99},
                    {"max", s.max}});
  }
}

/// Minimal extraction of `"key": <number>` from a flat JSON object; enough
/// for the committed baseline files and free of parser dependencies.
/// (Previously copy-pasted into micro_localsearch and micro_milp.)
inline bool json_number(const std::string& text, const std::string& key,
                        double* out) {
  const std::string needle = "\"" + key + "\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  const std::size_t p = text.find(':', at + needle.size());
  if (p == std::string::npos) return false;
  *out = std::strtod(text.c_str() + p + 1, nullptr);
  return true;
}

/// Gates `measured` (labelled `label`) against 0.8x the `key` field of the
/// baseline JSON at `path` — the shared --check implementation of the
/// micro benches. Returns the process exit code (0 ok, 1 regression or
/// unreadable baseline).
inline int check_baseline(const std::string& path, const std::string& key,
                          const std::string& label, double measured) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open baseline %s\n", path.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  double baseline = 0.0;
  if (!json_number(buf.str(), key, &baseline) || baseline <= 0.0) {
    std::fprintf(stderr, "baseline %s has no positive \"%s\" field\n",
                 path.c_str(), key.c_str());
    return 1;
  }
  const double floor = 0.8 * baseline;
  std::printf("check: %s %.1f vs baseline %.1f (floor %.1f): %s\n",
              label.c_str(), measured, baseline, floor,
              measured >= floor ? "ok" : "REGRESSION");
  return measured >= floor ? 0 : 1;
}

}  // namespace letdma::bench
