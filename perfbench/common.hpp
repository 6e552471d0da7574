// Shared plumbing of the letdma benchmark: options, timing, order
// statistics, the in-memory span recorder of the traced run, and the
// result record every workload returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "letdma/let/greedy.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Fixed-size deterministic pass instead of a timed run: prints the
  /// corpus digest and the solver/service counts the determinism test
  /// compares across runs.
  bool digest = false;
  /// Directory for run files (socket, journals, span dumps).
  std::string work_dir = ".bench_build/run";
};

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);
double peak_rss_mb();
/// Resident memory now (VmRSS); 0 when /proc/self/status is unreadable.
double current_rss_mb();

/// 64-bit FNV-1a, used for corpus digests.
std::uint64_t fnv1a(const std::string& text,
                    std::uint64_t h = 1469598103934665603ULL);
std::string hex64(std::uint64_t v);
/// A finite double as JSON with round-trip precision.
std::string json_number(double v);
/// A JSON array of json_number()s.
std::string json_list(const std::vector<double>& v);

/// Max worst-case latency over period of `schedule` on `comms` — the
/// OBJ-DEL measure, recomputed from the schedule alone.
double recompute_objective_del(const letdma::let::LetComms& comms,
                               const letdma::let::ScheduleResult& schedule);

/// In-memory span recorder for the traced run. Spans of one request share
/// `request`; `parent` links a span to the span that caused it. Nothing
/// is written until write_json() at the end of the run.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t request = 0;
    int parent = -1;
    double start_us = 0.0;
    double dur_us = 0.0;
  };
  struct Layer {
    std::int64_t count = 0;
    double busy_us = 0.0;  // sum of span durations
    double self_us = 0.0;  // busy minus time covered by child spans
    double p50_us = 0.0;
    double p99_us = 0.0;
  };

  Tracer();

  /// Opens a span now; returns its id for close() and as a parent.
  int open(const std::string& name, std::uint64_t request, int parent = -1);
  /// Closes an open span; returns its duration in microseconds.
  double close(int id);
  /// Records a span measured elsewhere (e.g. the service-side handling
  /// time a response reports), ending now.
  int record(const std::string& name, std::uint64_t request, int parent,
             double dur_us);

  std::map<std::string, Layer> layers() const;
  /// Durations (us) of every span named `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Chrome-trace JSON of every span; false when the file cannot be
  /// written.
  bool write_json(const std::string& path) const;

 private:
  double now_us() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// What a workload hands back to main(): the contract's result fields plus
/// workload-specific run-record entries (JSON values, already rendered).
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::map<std::string, std::string> record;
  /// First few failure descriptions, echoed to stderr.
  std::vector<std::string> failures;
  /// Per-layer span summary of a traced run (empty when untraced).
  std::map<std::string, Tracer::Layer> layers;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& what);
};

/// RAII span on an optional tracer (null = untraced: no-op).
class Scoped {
 public:
  Scoped(Tracer* tracer, const std::string& name, std::uint64_t request,
         int parent = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->open(name, request, parent) : -1) {}
  ~Scoped() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Adds `<prefix>.p50`, `.p99` and `.mean` of a layer, converting from
/// microseconds by `scale` (1 for us, 1e-3 for ms).
void add_layer_percentiles(Result& out, const Tracer& tracer,
                           const std::string& span, const std::string& prefix,
                           const std::string& unit, double scale,
                           bool with_mean);

Result run_waters_solve(const Options& options);
Result run_serve_hits(const Options& options);
Result run_serve_churn(const Options& options);

}  // namespace perfbench
