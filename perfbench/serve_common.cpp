#include "serve_common.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "letdma/guard/certify.hpp"
#include "letdma/let/schedule_io.hpp"
#include "letdma/model/io.hpp"

namespace perfbench {

using namespace letdma;

void ServedLog::add(std::uint64_t text, const serve::Response& r) {
  ++responses_;
  hits_ += r.cache_hit ? 1 : 0;
  near_misses_ += r.near_miss ? 1 : 0;
  if (!r.ok || !r.certified || r.schedule_text.empty()) {
    if (++bad_ <= 8) {
      errors_.push_back("request text " + std::to_string(text) + ": ok=" +
                        std::to_string(r.ok) + " certified=" +
                        std::to_string(r.certified) + " " + r.error);
    }
    return;
  }
  Entry& e = unique_[{text, fnv1a(r.schedule_text)}];
  if (e.schedule.empty()) e.schedule = r.schedule_text;
  e.reported.push_back(r.objective_value);
}

void ServedLog::merge(ServedLog&& other) {
  for (auto& [key, entry] : other.unique_) {
    Entry& e = unique_[key];
    if (e.schedule.empty()) e.schedule = std::move(entry.schedule);
    e.reported.insert(e.reported.end(), entry.reported.begin(),
                      entry.reported.end());
  }
  bad_ += other.bad_;
  errors_.insert(errors_.end(), other.errors_.begin(), other.errors_.end());
  responses_ += other.responses_;
  hits_ += other.hits_;
  near_misses_ += other.near_misses_;
  other = ServedLog();
}

namespace {

/// The outside checks of one folded entry; failures go to `out`.
void check_entry(const std::string& text, std::uint64_t name,
                 const std::string& schedule_text,
                 const std::vector<double>& reported, Result& out,
                 std::vector<double>& objectives) {
  const std::string where = "request text " + std::to_string(name);
  try {
    const auto app = model::read_application(text);
    const let::LetComms comms(*app);
    const let::ScheduleResult schedule =
        let::read_schedule(comms, schedule_text);
    const guard::Certificate cert = guard::certify(comms, schedule);
    if (!cert.certified()) {
      for (std::size_t i = 0; i < reported.size(); ++i) {
        out.fail(where + ": served schedule fails certify: " + cert.summary());
      }
      return;
    }
    const double objective = recompute_objective_del(comms, schedule);
    for (const double r : reported) {
      if (std::abs(r - objective) > 1e-9 * std::max(1.0, std::abs(objective))) {
        out.fail(where + ": reported objective " + std::to_string(r) +
                 " != recomputed " + std::to_string(objective));
      }
    }
    objectives.insert(objectives.end(), reported.size(), objective);
  } catch (const std::exception& e) {
    for (std::size_t i = 0; i < reported.size(); ++i) {
      out.fail(where + ": served schedule unreadable: " + e.what());
    }
  }
}

}  // namespace

void ServedLog::check(const TextOf& text_of, Result& out,
                      std::vector<double>& objectives, int threads) {
  for (std::int64_t i = 0; i < bad_; ++i) {
    out.fail(i < static_cast<std::int64_t>(errors_.size())
                 ? errors_[static_cast<std::size_t>(i)]
                 : "response not ok, uncertified or without a schedule");
  }
  bad_ = 0;
  errors_.clear();
  // Entries are split into contiguous slices, one per thread, and the
  // slices' results joined in order, so the outcome does not depend on
  // the thread count.
  std::vector<const std::pair<const Key, Entry>*> entries;
  for (const auto& kv : unique_) entries.push_back(&kv);
  const std::size_t slices = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(1, threads)), entries.size());
  std::vector<Result> parts(slices);
  std::vector<std::vector<double>> part_objectives(slices);
  std::vector<std::string> errors(slices);
  const auto check_slice = [&](std::size_t t) {
    try {
      const std::size_t first = entries.size() * t / slices;
      const std::size_t last = entries.size() * (t + 1) / slices;
      for (std::size_t i = first; i < last; ++i) {
        const auto& [key, entry] = *entries[i];
        check_entry(text_of(key.first), key.first, entry.schedule,
                    entry.reported, parts[t], part_objectives[t]);
      }
    } catch (const std::exception& e) {
      errors[t] = e.what();
    }
  };
  if (slices == 1) {
    check_slice(0);  // on the calling thread
  } else {
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < slices; ++t) pool.emplace_back(check_slice, t);
    for (std::thread& t : pool) t.join();
  }
  for (std::size_t t = 0; t < slices; ++t) {
    if (!errors[t].empty()) out.fail("outside check aborted: " + errors[t]);
    for (std::int64_t i = 0; i < parts[t].failed; ++i) {
      out.fail(i < static_cast<std::int64_t>(parts[t].failures.size())
                   ? parts[t].failures[static_cast<std::size_t>(i)]
                   : "outside check failed");
    }
    objectives.insert(objectives.end(), part_objectives[t].begin(),
                      part_objectives[t].end());
  }
  unique_.clear();
}

LiveServer::LiveServer(serve::ServiceOptions service_options,
                       const std::string& socket_path, int threads)
    : service(std::make_unique<serve::Service>(std::move(service_options))) {
  serve::ServerOptions so;
  so.socket_path = socket_path;
  so.threads = threads;
  server = std::make_unique<serve::Server>(*service, so);
  server->start();
}

LiveServer::~LiveServer() {
  if (server) server->stop();
}

}  // namespace perfbench
