// letdma_perfbench — the repository benchmark's measuring program.
//
//   letdma_perfbench --workload <waters-solve|serve-hits|serve-churn>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--commit <id>] [--digest]
//
// Prints a run-record line and, as the last line of stdout, one JSON
// object {"correct","attempted","failed","metrics"}. --trace 0 reports the
// end-to-end metrics of an untraced run; --trace 1 the per-layer metrics
// of a traced run (spans kept in memory, dumped at exit). --digest runs a
// small fixed pass and reports the corpus digest and exact counts instead.
// Exit status: 0 when every check passed, 1 on a failed check, 2 on usage.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "common.hpp"
#include "letdma/obs/json.hpp"

// PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, PERFBENCH_TRACING and
// PERFBENCH_FAULTS come from CMakeLists.txt.

namespace {

using perfbench::Options;
using perfbench::Result;

int usage() {
  std::fprintf(stderr,
               "usage: letdma_perfbench --workload <waters-solve|serve-hits|"
               "serve-churn> --seed n --seconds s --trace 0|1"
               " [--commit id] [--digest]\n");
  return 2;
}

std::string quoted(const std::string& s) {
  std::string out;
  letdma::obs::json::append_string(out, s);
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Steal and total jiffies of all CPUs (/proc/stat): the share of time a
/// virtual machine's CPUs were runnable but held by the host.
std::pair<double, double> cpu_steal_total() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double steal = 0.0, total = 0.0;
  for (int field = 0; field < 8; ++field) {
    double v = 0.0;
    if (!(in >> v)) break;
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string commit = "unknown";
  int trace = -1;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const bool has_value = a + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++a];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++a], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++a]);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++a]);
    } else if (arg == "--commit" && has_value) {
      commit = argv[++a];
    } else if (arg == "--digest") {
      opt.digest = true;
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || opt.seconds <= 0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  opt.trace = trace == 1;

  // Fault injection measures a different program; the remaining knobs are
  // read by library or bench helpers and must not reshape a workload.
  if (const char* faults = std::getenv("LETDMA_FAULTS")) {
    std::fprintf(stderr, "refusing to run: LETDMA_FAULTS=%s is set\n", faults);
    return 2;
  }
  for (const char* knob : {"LETDMA_MILP_TIMEOUT", "LETDMA_MILP_THREADS",
                           "LETDMA_SAMPLE_HZ", "LETDMA_METRICS",
                           "LETDMA_FLIGHT_DUMP"}) {
    unsetenv(knob);
  }
  mkdir(".bench_build", 0755);
  mkdir(opt.work_dir.c_str(), 0755);

  const auto [steal0, total0] = cpu_steal_total();
  Result result;
  try {
    if (opt.workload == "waters-solve") {
      result = perfbench::run_waters_solve(opt);
    } else if (opt.workload == "serve-hits") {
      result = perfbench::run_serve_hits(opt);
    } else if (opt.workload == "serve-churn") {
      result = perfbench::run_serve_churn(opt);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s aborted: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  const auto [steal1, total1] = cpu_steal_total();
  const double host_steal_share =
      total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0.0;
  for (const perfbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) result.fail(m.name + " is not finite");
  }
  for (const std::string& f : result.failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  if (!result.layers.empty()) {
    std::fprintf(stderr, "%-34s %8s %12s %12s %11s %11s\n", "layer", "count",
                 "busy_ms", "self_ms", "p50_us", "p99_us");
    for (const auto& [name, l] : result.layers) {
      std::fprintf(stderr, "%-34s %8lld %12.3f %12.3f %11.2f %11.2f\n",
                   name.c_str(), static_cast<long long>(l.count),
                   l.busy_us / 1e3, l.self_us / 1e3, l.p50_us, l.p99_us);
    }
  }

  std::string record = "{\"run_record\":{\"workload\":" +
                       quoted(opt.workload) +
                       ",\"seed\":" + std::to_string(opt.seed) +
                       ",\"seconds\":" + perfbench::json_number(opt.seconds) +
                       ",\"trace\":" + std::to_string(trace) +
                       ",\"commit\":" + quoted(commit) +
                       ",\"nproc\":" +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ",\"cpu_model\":" + quoted(cpu_model()) +
                       ",\"compiler\":" + quoted(PERFBENCH_COMPILER) +
                       ",\"cmake_build_type\":" +
                       quoted(PERFBENCH_BUILD_TYPE) +
                       ",\"LETDMA_ENABLE_TRACING\":" +
                       (PERFBENCH_TRACING ? "true" : "false") +
                       ",\"LETDMA_ENABLE_FAULTS\":" +
                       (PERFBENCH_FAULTS ? "true" : "false") +
                       ",\"host_steal_share\":" +
                       perfbench::json_number(host_steal_share);
  for (const auto& [key, value] : result.record) {
    record += "," + quoted(key) + ":" + value;
  }
  record += "}}";
  std::printf("%s\n", record.c_str());

  const bool correct = result.failed == 0 && result.attempted > 0;
  std::string line = std::string("{\"correct\":") +
                     (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(result.attempted) +
                     ",\"failed\":" + std::to_string(result.failed) +
                     ",\"metrics\":{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    if (i > 0) line += ",";
    line += quoted(m.name) + ":{\"value\":" + perfbench::json_number(m.value) +
            ",\"unit\":" + quoted(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
