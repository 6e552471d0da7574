#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <numeric>

#include "bench_util.hpp"
#include "letdma/let/latency.hpp"
#include "letdma/obs/json.hpp"

namespace perfbench {

void Result::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t at =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size()))) - 1;
  return v[at];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double current_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t h) {
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string json_number(double v) {
  std::string s;
  letdma::obs::json::append_number(s, v);
  return s;
}

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  for (const double x : v) s += (s.size() > 1 ? "," : "") + json_number(x);
  return s + "]";
}

double recompute_objective_del(const letdma::let::LetComms& comms,
                               const letdma::let::ScheduleResult& schedule) {
  return letdma::bench::max_latency_ratio(
      comms.app(), letdma::let::worst_case_latencies(
                       comms, schedule.schedule,
                       letdma::let::ReadinessSemantics::kProposed));
}

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

int Tracer::open(const std::string& name, std::uint64_t request,
                 int parent) {
  spans_.push_back({name, request, parent, now_us(), -1.0});
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.dur_us = now_us() - s.start_us;
  return s.dur_us;
}

int Tracer::record(const std::string& name, std::uint64_t request,
                   int parent, double dur_us) {
  const double end = now_us();
  spans_.push_back({name, request, parent, end - dur_us, dur_us});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, Tracer::Layer> Tracer::layers() const {
  // Children of one parent run sequentially here, so their durations sum
  // to the part of the parent they cover.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.dur_us >= 0.0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.dur_us;
    }
  }
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, Layer> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.dur_us < 0.0) continue;  // never closed
    Layer& l = out[s.name];
    ++l.count;
    l.busy_us += s.dur_us;
    l.self_us += std::max(0.0, s.dur_us - child_us[i]);
    samples[s.name].push_back(s.dur_us);
  }
  for (auto& [name, l] : out) {
    l.p50_us = percentile(samples[name], 50);
    l.p99_us = percentile(samples[name], 99);
  }
  return out;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.dur_us >= 0.0) out.push_back(s.dur_us);
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string line = "{\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.dur_us < 0.0) continue;
    if (!first) line += ",\n";
    first = false;
    line += "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":";
    letdma::obs::json::append_string(line, s.name);
    line += ",\"ts\":";
    letdma::obs::json::append_number(line, s.start_us);
    line += ",\"dur\":";
    letdma::obs::json::append_number(line, s.dur_us);
    line += ",\"args\":{\"request\":" + std::to_string(s.request) +
            ",\"span\":" + std::to_string(i) +
            ",\"parent\":" + std::to_string(s.parent) + "}}";
    if (line.size() > (1 << 16)) {
      std::fwrite(line.data(), 1, line.size(), f);
      line.clear();
    }
  }
  line += "\n]}\n";
  std::fwrite(line.data(), 1, line.size(), f);
  return std::fclose(f) == 0;
}

void add_layer_percentiles(Result& out, const Tracer& tracer,
                           const std::string& span, const std::string& prefix,
                           const std::string& unit, double scale,
                           bool with_mean) {
  const std::vector<double> d = tracer.durations(span);
  out.add(prefix + ".p50", percentile(d, 50) * scale, unit);
  out.add(prefix + ".p99", percentile(d, 99) * scale, unit);
  if (with_mean) out.add(prefix + ".mean", mean(d) * scale, unit);
}

}  // namespace perfbench
