// serve-churn: the write path of the scheduling service at WATERS scale.
//
// One closed-loop client (an engineer resubmitting edits) sends WATERS
// copies with 1-5 labels resized (bench::perturb_labels) through the
// socket. No request text repeats, so every request misses the
// fingerprint cache and goes through the near-miss scan, an
// engine::IncrementalScheduler repair, certify, a cache insert and a
// journal append. Set-up constructs the Service on a journal pre-written
// from an earlier edit stream, so journal recovery (which re-certifies
// every record) is part of it. The traced run replays each request's
// steps, in Service::handle's order, on the same input and cache state.
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common.hpp"
#include "letdma/engine/incremental.hpp"
#include "letdma/guard/certify.hpp"
#include "letdma/let/compiled.hpp"
#include "letdma/let/repair.hpp"
#include "letdma/let/schedule_io.hpp"
#include "letdma/model/canonical.hpp"
#include "letdma/model/diff.hpp"
#include "letdma/model/io.hpp"
#include "letdma/serve/journal.hpp"
#include "letdma/serve/translate.hpp"
#include "serve_common.hpp"

namespace perfbench {
namespace {

using namespace letdma;

constexpr int kJournalRecords = 40;  // earlier edits recovered at set-up
constexpr int kMaxLabelsResized = 5;
// The stream is sized for this rate, about 3x the fastest measured.
constexpr double kStreamRate = 100.0;
// Set-up samples: services built one after another on fresh copies of the
// pre-written journal, before the run. They are not spread over the run:
// starting servers between requests made peak_rss_mb flip between two
// values some 35 MB apart from run to run.
constexpr int kSetupReps = 16;
constexpr int kWorkers = 1;  // one engineer, one request at a time
// The cache holds as many entries as recovery brings back, so it is full
// from the first request and every insert also evicts: the per-miss cost
// and the memory stay the same over the run.
constexpr std::size_t kCacheCapacity = kJournalRecords;
constexpr double kTailPercentile = 90.0;
constexpr engine::Objective kObjective =
    engine::Objective::kMinMaxLatencyRatio;

/// Distinct perturbed WATERS texts; none byte-identical to another.
std::vector<std::string> edit_stream(const model::Application& base,
                                     std::size_t n, std::mt19937_64& rng,
                                     std::set<std::uint64_t>& seen) {
  std::uniform_int_distribution<int> labels(1, kMaxLabelsResized);
  std::vector<std::string> out;
  while (out.size() < n) {
    std::string text =
        model::write_application(*bench::perturb_labels(base, labels(rng), rng));
    if (seen.insert(fnv1a(text)).second) out.push_back(std::move(text));
  }
  return out;
}

serve::Request make_request(const std::string& text, std::size_t i) {
  serve::Request r;
  r.id = "e" + std::to_string(i);
  r.tenant = "engineer";
  r.model_text = text;
  r.objective = kObjective;
  r.budget_sec = 1.0;
  r.want_schedule = true;
  return r;
}

serve::ServiceOptions service_options(const std::string& journal) {
  serve::ServiceOptions o;
  o.journal_path = journal;
  o.cache_capacity = kCacheCapacity;
  // Misses that the repair cannot serve fall to the cheap end of the
  // chain, as in the incremental-repair bench; the MILP is measured by
  // waters-solve.
  o.guard.chain = {"ls", "greedy", "giotto"};
  return o;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  return static_cast<bool>(out);
}

struct Replay {
  std::int64_t requests = 0;
  std::int64_t scanned = 0;
  std::int64_t repairs = 0;
  std::int64_t fell_through = 0;
  std::int64_t ls_evaluations = 0;
};

/// Handles `req` in-process, then replays its miss path step by step on
/// the cache state `handle` saw (snapshot taken before the call).
void replay_request(serve::Service& service, serve::Journal& scratch,
                    const serve::Request& req, std::uint64_t id, Tracer& tr,
                    Replay& rp, ServedLog& log, std::uint64_t text) {
  const auto before = service.cache().snapshot();
  const Scoped request(&tr, "request", id);
  serve::Response res;
  {
    const Scoped handle(&tr, "serve.handle", id, request.id());
    res = service.handle(req);
  }
  log.add(text, res);
  ++rp.requests;

  const Scoped replay(&tr, "replay", id, request.id());
  const auto timed = [&](const char* name, auto&& fn) {
    const Scoped span(&tr, name, id, replay.id());
    return fn();
  };
  const auto app =
      timed("model.parse", [&] { return model::read_application(req.model_text); });
  const model::Canonicalization canon =
      timed("model.canonicalize", [&] { return model::canonicalize(*app); });
  const auto target = timed("let.comms_build", [&] {
    return std::make_unique<let::LetComms>(*app);
  });

  // Near-miss scan over the MRU entries handle() examined.
  const serve::ServiceOptions& opt = service.options();
  std::shared_ptr<const serve::CachedSolve> near;
  double best = opt.nearmiss_max_distance;
  int scanned = 0;
  for (const auto& [key, cand] : before) {
    if (key.objective != req.objective) continue;
    if (++scanned > opt.nearmiss_scan_limit) break;
    const double d = timed("model.canonical_distance", [&] {
      return model::canonical_distance(*cand->app, *canon.app);
    });
    if (d <= best) {
      best = d;
      near = cand;
    }
  }
  rp.scanned += std::min(scanned, opt.nearmiss_scan_limit);
  if (!near) return;
  const model::ApplicationDiff diff =
      timed("model.diff", [&] { return model::diff(*near->app, *canon.app); });
  const auto comms = timed("let.comms_build", [&] {
    return std::make_unique<let::LetComms>(*canon.app);
  });

  engine::IncrementalOptions iopt;
  iopt.objective = req.objective;
  iopt.guard = opt.guard;
  iopt.guard.objective = req.objective;
  engine::IncrementalScheduler incremental(iopt);
  engine::WarmStart warm;
  warm.schedule = &near->schedule;
  warm.diff = &diff;
  engine::SharedIncumbent sink;
  const engine::ScheduleOutcome outcome = timed("engine.incremental", [&] {
    engine::Budget budget;
    budget.wall_sec = req.budget_sec;
    return incremental.solve(*comms, budget, sink, warm);
  });
  ++rp.repairs;
  rp.fell_through += incremental.last_record().fell_through ? 1 : 0;
  // The repair step alone, on the same seed (its evaluation count is what
  // a faster local search changes).
  const let::RepairResult repaired = timed("let.repair", [&] {
    const let::CompiledComms compiled(*comms);
    let::LocalSearchOptions ls = iopt.search;
    return let::repair(compiled, near->schedule, &diff, ls);
  });
  rp.ls_evaluations += repaired.repaired ? repaired.result.evaluations : 0;
  if (!outcome.schedule) return;

  const let::ScheduleResult translated = timed("serve.translate", [&] {
    return serve::translate_schedule(*outcome.schedule, canon, *target);
  });
  timed("guard.certify",
        [&] { return guard::certify(*target, translated).certified(); });
  timed("serve.journal_append", [&] {
    serve::JournalRecord rec;
    rec.canonical_text = canon.text;
    rec.objective = req.objective;
    rec.status = outcome.status;
    rec.objective_value = outcome.objective;
    rec.strategy = outcome.strategy;
    rec.schedule_text = let::write_schedule(*canon.app, *outcome.schedule);
    scratch.append(rec);
    return 0;
  });
}

}  // namespace

Result run_serve_churn(const Options& opt) {
  Result out;
  const auto base = waters::make_waters_app();
  std::mt19937_64 rng(opt.seed);
  std::set<std::uint64_t> seen;
  const std::vector<std::string> earlier =
      edit_stream(*base, kJournalRecords, rng, seen);
  const std::size_t length =
      static_cast<std::size_t>(kStreamRate * opt.seconds) + 32;
  const std::vector<std::string> texts = edit_stream(*base, length, rng, seen);
  std::uint64_t digest = fnv1a("");
  for (const std::string& t : earlier) digest = fnv1a(t, digest);
  for (const std::string& t : texts) digest = fnv1a(t, digest);
  out.record["corpus_digest"] = "\"" + hex64(digest) + "\"";

  const std::string stem = opt.work_dir + "/churn-" + std::to_string(getpid());
  const std::string socket = stem + ".sock";
  const std::string journal = stem + ".journal";
  const std::string scratch_journal = stem + ".replay.journal";

  // The earlier stream, journaled by a service of its own (input
  // preparation, not timed).
  std::remove(journal.c_str());
  {
    serve::Service writer(service_options(journal));
    for (std::size_t i = 0; i < earlier.size(); ++i) {
      const serve::Response r = writer.handle(make_request(earlier[i], i));
      if (!r.ok || !r.certified) out.fail("earlier edit failed: " + r.error);
    }
  }
  const std::string journal_bytes = read_file(journal);

  // Resident memory after input preparation (the edit stream, and the
  // service that wrote the journal, now gone), before the measured
  // services start.
  out.record["rss_before_server_mb"] = json_number(current_rss_mb());
  std::vector<double> setup;
  std::unique_ptr<LiveServer> live;
  std::int64_t recovered = 0;  // journal records the last set-up recovered
  // Restores the pre-written journal and starts `reps` services on it one
  // after another, keeping the last; each start (recovery included) is one
  // set-up sample.
  const auto set_up = [&](int reps) {
    for (int i = 0; i < reps; ++i) {
      live.reset();
      if (!write_file(journal, journal_bytes)) {
        throw std::runtime_error("cannot write the journal copy");
      }
      const auto t0 = Clock::now();
      live = std::make_unique<LiveServer>(service_options(journal), socket,
                                          kWorkers);
      setup.push_back(seconds_since(t0));
      recovered = live->service->stats().journal.recovered;
      if (recovered != kJournalRecords) {
        out.fail("recovered " + std::to_string(recovered) + " of " +
                 std::to_string(kJournalRecords) + " journal records");
      }
    }
  };

  ServedLog log;
  std::vector<double> objectives;
  const ServedLog::TextOf text_of = [&](std::uint64_t i) {
    return texts.at(i);
  };
  std::vector<double> latency_ms;
  std::size_t pos = 0;
  // One connection, one request at a time, for `seconds`; the responses
  // are checked right after, outside the timed window, on this thread
  // (there are a few hundred).
  const auto closed_loop = [&](double seconds, std::size_t limit) {
    serve::Client client(socket);
    const auto t0 = Clock::now();
    for (; pos < texts.size() && pos < limit && seconds_since(t0) < seconds;
         ++pos) {
      const auto sent = Clock::now();
      const serve::Response r = client.call(make_request(texts[pos], pos));
      latency_ms.push_back(seconds_since(sent) * 1e3);
      log.add(pos, r);
    }
    const double elapsed = seconds_since(t0);
    log.check(text_of, out, objectives, 1);
    return elapsed;
  };
  const auto finish = [&] {
    live.reset();
    std::remove(journal.c_str());
    out.attempted = log.responses();
    out.record["set_ups"] = std::to_string(setup.size());
    out.record["journal_records_recovered"] = std::to_string(recovered);
  };

  if (opt.digest) {
    set_up(1);
    closed_loop(1e9, 24);
    finish();
    out.record["counts"] = "{\"responses\":" +
                           std::to_string(log.responses()) +
                           ",\"near_miss_hits\":" +
                           std::to_string(log.near_misses()) +
                           ",\"cache_hits\":" +
                           std::to_string(log.cache_hits()) +
                           ",\"objective_del\":" +
                           json_number(mean(objectives)) + "}";
    return out;
  }

  if (!opt.trace) {
    set_up(kSetupReps);
    const double busy_s = closed_loop(opt.seconds, texts.size());
    finish();
    const std::size_t n = latency_ms.size();
    out.record["requests"] = std::to_string(n);
    out.record["tail_percentile"] = json_number(kTailPercentile);
    out.record["tail_samples_beyond"] = std::to_string(
        n - static_cast<std::size_t>(kTailPercentile / 100.0 * n));
    out.record["near_miss_served"] = std::to_string(log.near_misses());
    out.add("setup_s", median(setup), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("req_per_s", static_cast<double>(n) / busy_s, "1/s");
    out.add("latency_p50_ms", percentile(latency_ms, 50), "ms");
    out.add("latency_tail_ms", percentile(latency_ms, kTailPercentile), "ms");
    // The median: a few repairs that settle far from the optimum would
    // otherwise set the figure (the mean is in the run record).
    out.add("objective_del", median(objectives), "ratio");
    out.record["latency_p99_ms"] = json_number(percentile(latency_ms, 99));
    out.record["objective_del_mean"] = json_number(mean(objectives));
    return out;
  }

  // Traced run, in-process: even positions call handle() untraced (the
  // reference for the tracing overhead), odd positions call it inside a
  // span and replay its steps. Interleaving exposes both to the same host
  // conditions.
  set_up(kSetupReps);
  Tracer tracer;
  Replay rp;
  std::vector<double> plain_us;
  std::remove(scratch_journal.c_str());
  double compact_ms = 0.0;
  {
    serve::Journal scratch(scratch_journal);
    const auto t0 = Clock::now();
    for (; pos < texts.size() && seconds_since(t0) < opt.seconds; ++pos) {
      const serve::Request req = make_request(texts[pos], pos);
      if (pos % 2 == 0) {
        const auto start = Clock::now();
        log.add(pos, live->service->handle(req));
        plain_us.push_back(seconds_since(start) * 1e6);
      } else {
        replay_request(*live->service, scratch, req, pos, tracer, rp, log,
                       pos);
      }
    }
    // One compaction of the live cache into the scratch journal.
    std::vector<serve::JournalRecord> records;
    for (const auto& [key, value] : live->service->cache().snapshot()) {
      serve::JournalRecord rec;
      rec.canonical_text = model::write_application(*value->app);
      rec.objective = key.objective;
      rec.status = value->status;
      rec.objective_value = value->objective_value;
      rec.strategy = value->strategy;
      rec.schedule_text = let::write_schedule(*value->app, value->schedule);
      records.push_back(std::move(rec));
    }
    const auto c0 = Clock::now();
    scratch.compact(records);
    compact_ms = seconds_since(c0) * 1e3;
  }
  std::remove(scratch_journal.c_str());
  log.check(text_of, out, objectives, 1);
  finish();
  out.layers = tracer.layers();

  const auto share = [](std::int64_t part, std::int64_t whole) {
    return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                     : 0.0;
  };
  add_layer_percentiles(out, tracer, "serve.handle", "serve.handle_ms", "ms",
                        1e-3, false);
  add_layer_percentiles(out, tracer, "model.parse", "model.parse_us", "us",
                        1.0, true);
  add_layer_percentiles(out, tracer, "model.canonicalize",
                        "model.canonicalize_us", "us", 1.0, true);
  add_layer_percentiles(out, tracer, "let.comms_build", "let.comms_build_ms",
                        "ms", 1e-3, false);
  out.add("serve.nearmiss_scanned",
          share(rp.scanned, rp.requests), "count");
  add_layer_percentiles(out, tracer, "model.canonical_distance",
                        "model.canonical_distance_us", "us", 1.0, false);
  add_layer_percentiles(out, tracer, "model.diff", "model.diff_us", "us", 1.0,
                        false);
  add_layer_percentiles(out, tracer, "engine.incremental",
                        "engine.incremental_ms", "ms", 1e-3, false);
  add_layer_percentiles(out, tracer, "let.repair", "let.repair_ms", "ms",
                        1e-3, false);
  out.add("let.ls_evaluations", share(rp.ls_evaluations, rp.repairs),
          "count");
  add_layer_percentiles(out, tracer, "guard.certify", "guard.certify_ms",
                        "ms", 1e-3, false);
  add_layer_percentiles(out, tracer, "serve.journal_append",
                        "serve.journal_append_us", "us", 1.0, false);
  out.add("serve.journal_compact_ms", compact_ms, "ms");
  out.add("serve.nearmiss_hit_rate",
          share(log.near_misses(), log.responses()), "ratio");
  out.add("engine.fallthrough_rate", share(rp.fell_through, rp.repairs),
          "ratio");
  out.add("serve.recover_ms_per_record",
          median(setup) * 1e3 / static_cast<double>(std::max<std::int64_t>(
                                    1, recovered)),
          "ms");
  // edit_stream() admits no repeated text, so this share is 0 by
  // construction; it is reported so serve-hits' share has its contrast.
  out.add("serve.byte_repeat_share", 0.0, "ratio");
  out.add("serve.fingerprint_hit_share",
          share(log.cache_hits(), log.responses()), "ratio");
  // The spans' own cost on the calls they wrap: the median traced handle()
  // span against the median untraced handle() call. Every request here is
  // a different edit, so the figure carries the spread of the two samples.
  const double plain = median(plain_us);
  out.add("bench.trace_overhead_share",
          (median(tracer.durations("serve.handle")) - plain) / plain, "ratio");
  if (!tracer.write_json(opt.work_dir + "/serve-churn.trace.json")) {
    out.fail("cannot write the span dump");
  }
  return out;
}

}  // namespace perfbench
