// serve-hits: the read path of the scheduling service.
//
// An in-process serve::Server with two workers is driven over its Unix
// socket by serve::Client with want_schedule=true. The stream is permuted
// duplicates of small replay bases (every request is a fingerprint hit
// once the bases are warm) and an assumed share of byte-identical
// resubmissions of recent request text. Request i's text is built from
// (seed, i) when it is sent, so the run holds no corpus. Two phases:
//   * saturated closed loop: two connections pipelining batches -> req/s;
//   * paced open loop: seeded Poisson arrivals at a fixed rate on two
//     connections, each request timed from its due time -> latencies.
// Warm-up solves of the bases are set-up. The traced run adds a replay of
// each request's steps, in Service::handle's order, on the same input.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common.hpp"
#include "letdma/guard/certify.hpp"
#include "letdma/let/schedule_io.hpp"
#include "letdma/model/canonical.hpp"
#include "letdma/model/io.hpp"
#include "letdma/serve/translate.hpp"
#include "serve_common.hpp"

namespace perfbench {
namespace {

using namespace letdma;

constexpr int kBases = 12;
constexpr int kTenants = 4;
constexpr int kWorkers = 2;
constexpr int kConnections = 2;
constexpr std::size_t kBatch = 16;
// Nothing in the repository measures how often clients resubmit the exact
// text of an earlier request; this share and the window are assumptions.
// The traced run reports parse and canonicalize separately for repeats
// and fresh texts, so a gain on repeats can be rescaled to another share.
constexpr double kRepeatShare = 0.25;
// A resubmission repeats one of the last kRepeatWindow requests.
constexpr std::uint64_t kRepeatWindow = 1000;
constexpr double kPacedRate = 1000.0;  // requests per second
// Set-up samples, all taken before the run: starting servers between
// phases makes peak_rss_mb vary with how many allocator arenas the new
// threads happen to create.
constexpr int kSetupReps = 16;
// The untraced run is kRounds rounds on fresh connections: a saturated
// phase for a quarter of the round, then a paced phase. Interference from
// other tenants of the host comes in episodes of several seconds and only
// ever slows a round down, so the figures are those of the best round
// (highest rate, lowest latencies); the medians over rounds are in the run
// record.
constexpr int kRounds = 8;
// The tail is p90: on a 4-vCPU guest, p99 of a sub-millisecond request is
// set by host scheduling stalls (run-to-run spread 0.4-0.7 measured), p90
// by the program. p99 is kept in the run record.
constexpr double kTailPercentile = 90.0;
constexpr std::chrono::microseconds kSpinWindow{300};
// The outside checks of a phase run on this many threads, while the
// server idles: a saturated phase leaves thousands of responses to check.
constexpr int kCheckThreads = 4;
// A saturated phase runs in this many slices, each followed by the checks
// of its responses. Holding a whole phase's responses (some 10,000) made
// peak_rss_mb follow the throughput and vary from run to run by a third.
constexpr int kSaturatedSlices = 4;
// Stream positions covered by the corpus digest of the run record.
constexpr std::uint64_t kDigestLength = 4096;

std::uint64_t mix64(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The request stream. Position i is either fresh, a permuted duplicate
/// of base i % kBases, or a resubmission of the text of an earlier
/// position. Both follow from (seed, i) alone, so any thread can build any
/// position's text when it needs it.
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : seed_(seed) {
    for (int b = 0; b < kBases; ++b) {
      // The distinct instances are the same for every seed; the seed
      // shapes the traffic (permutations, resubmissions, arrivals).
      bases_.push_back(bench::make_replay_base(1000 + b));
      base_texts_.push_back(model::write_application(*bases_.back()));
    }
  }

  const std::vector<std::string>& bases() const { return base_texts_; }

  bool repeat(std::uint64_t i) const { return earlier(i) != i; }

  /// The fresh position whose text position i carries (i when fresh).
  std::uint64_t source(std::uint64_t i) const {
    for (std::uint64_t j = earlier(i); j != i; j = earlier(i)) i = j;
    return i;
  }

  /// The text of position i.
  std::string text(std::uint64_t i) const {
    const std::uint64_t s = source(i);
    std::mt19937_64 rng(mix64(seed_ ^ mix64(2 * s + 1)));
    return model::write_application(
        *bench::permuted_duplicate(*bases_[s % kBases], rng));
  }

 private:
  /// The position i repeats, or i itself when it is fresh.
  std::uint64_t earlier(std::uint64_t i) const {
    if (i == 0) return i;
    std::mt19937_64 rng(mix64(seed_ ^ mix64(2 * i)));
    if (!std::bernoulli_distribution(kRepeatShare)(rng)) return i;
    std::uniform_int_distribution<std::uint64_t> back(
        1, std::min(i, kRepeatWindow));
    return i - back(rng);
  }

  std::uint64_t seed_;
  std::vector<std::unique_ptr<model::Application>> bases_;
  std::vector<std::string> base_texts_;
};

serve::Request make_request(const std::string& text, std::size_t i) {
  serve::Request r;
  r.id = "r" + std::to_string(i);
  r.tenant = "t" + std::to_string(i % kTenants);
  r.model_text = text;
  r.objective = engine::Objective::kMinMaxLatencyRatio;
  r.budget_sec = 1.0;
  r.want_schedule = true;
  return r;
}

serve::ServiceOptions service_options() {
  serve::ServiceOptions o;
  o.default_policy.max_inflight = 1 << 20;  // shedding is not under test
  // Warm-up solves use the cheap end of the chain; the timed window only
  // serves hits.
  o.guard.chain = {"ls", "greedy", "giotto"};
  return o;
}

/// Starts a server and solves every base once through the socket.
std::unique_ptr<LiveServer> start_warm(const Stream& stream,
                                       const std::string& socket,
                                       Result& out) {
  auto live = std::make_unique<LiveServer>(service_options(), socket, kWorkers);
  serve::Client client(socket);
  for (std::size_t b = 0; b < stream.bases().size(); ++b) {
    const serve::Response r = client.call(make_request(stream.bases()[b], b));
    if (!r.ok || !r.certified) out.fail("warm-up solve failed: " + r.error);
  }
  return live;
}

/// Position in the stream shared by the client threads of one phase.
class Cursor {
 public:
  Cursor(std::size_t begin, std::size_t end) : next_(begin), end_(end) {}
  /// Claims up to n positions; returns [first, last).
  std::pair<std::size_t, std::size_t> take(std::size_t n) {
    const std::size_t first = next_.fetch_add(n);
    return {std::min(first, end_), std::min(first + n, end_)};
  }
  std::size_t position() const { return std::min(next_.load(), end_); }

 private:
  std::atomic<std::size_t> next_;
  std::size_t end_;
};

/// One client per connection of a phase. A run keeps its connections:
/// every new connection starts a server thread, and new threads made
/// peak_rss_mb vary with the allocator arenas they happened to get.
using Clients = std::vector<std::unique_ptr<serve::Client>>;

Clients connect(const std::string& socket) {
  Clients clients;
  for (int k = 0; k < kConnections; ++k) {
    clients.push_back(std::make_unique<serve::Client>(socket));
  }
  return clients;
}

struct Saturated {
  double elapsed_s = 0.0;
  std::size_t end = 0;  // stream position reached
};

/// Closed loop for `seconds`: every connection builds kBatch requests,
/// pipelines them and waits for the answers before building the next
/// batch.
Saturated run_saturated(const Stream& stream, Clients& clients,
                        std::size_t begin, double seconds, ServedLog& log) {
  Cursor cursor(begin, std::numeric_limits<std::size_t>::max() / 2);
  std::vector<ServedLog> logs(kConnections);
  std::vector<std::string> errors(kConnections);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int k = 0; k < kConnections; ++k) {
    threads.emplace_back([&, k] {
      try {
        while (seconds_since(t0) < seconds) {
          const auto [first, last] = cursor.take(kBatch);
          std::vector<serve::Request> batch;
          for (std::size_t i = first; i < last; ++i) {
            batch.push_back(make_request(stream.text(i), i));
          }
          const std::vector<serve::Response> rs =
              clients[k]->call_batch(batch);
          for (std::size_t i = 0; i < rs.size(); ++i) {
            logs[k].add(stream.source(first + i), rs[i]);
          }
        }
      } catch (const std::exception& e) {
        errors[k] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = seconds_since(t0);
  for (int k = 0; k < kConnections; ++k) {
    if (!errors[k].empty()) throw std::runtime_error(errors[k]);
    log.merge(std::move(logs[k]));
  }
  return {elapsed, cursor.position()};
}

/// Sleeps until shortly before `at`, then yields until it: a timer wakeup
/// alone runs late by a scheduler-dependent amount, which would count as
/// latency of the system under test.
void wait_until(Clock::time_point at) {
  std::this_thread::sleep_until(at - kSpinWindow);
  while (Clock::now() < at) std::this_thread::yield();
}

struct Paced {
  std::vector<double> latency_ms;   // completion minus due time
  std::vector<double> lateness_ms;  // send minus due time
  std::vector<double> wire_us;      // round trip minus service handling
  std::size_t end = 0;
};

/// Open loop: seeded Poisson arrivals at kPacedRate; each connection sends
/// the next due request as soon as it is free. The phase's requests are
/// built before it starts, so building them is not counted as latency.
Paced run_paced(const Stream& stream, Clients& clients, std::size_t begin,
                double seconds, std::uint64_t seed, ServedLog& log) {
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::exponential_distribution<double> gap(kPacedRate);
  std::vector<double> due;  // seconds after the phase starts
  for (double t = gap(rng); t < seconds; t += gap(rng)) due.push_back(t);
  std::vector<serve::Request> requests;
  for (std::size_t j = 0; j < due.size(); ++j) {
    requests.push_back(make_request(stream.text(begin + j), begin + j));
  }
  Cursor cursor(0, due.size());
  std::vector<ServedLog> logs(kConnections);
  std::vector<Paced> parts(kConnections);
  std::vector<std::string> errors(kConnections);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int k = 0; k < kConnections; ++k) {
    threads.emplace_back([&, k] {
      try {
        for (;;) {
          const auto [j, last] = cursor.take(1);
          if (j == last) break;
          const auto at = t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(due[j]));
          wait_until(at);
          const auto sent = Clock::now();
          const serve::Response r = clients[k]->call(requests[j]);
          const auto finished = Clock::now();
          parts[k].latency_ms.push_back(seconds_between(at, finished) * 1e3);
          parts[k].lateness_ms.push_back(seconds_between(at, sent) * 1e3);
          parts[k].wire_us.push_back(seconds_between(sent, finished) * 1e6 -
                                     r.wall_ms * 1e3);
          logs[k].add(stream.source(begin + j), r);
        }
      } catch (const std::exception& e) {
        errors[k] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Paced p;
  for (int k = 0; k < kConnections; ++k) {
    if (!errors[k].empty()) throw std::runtime_error(errors[k]);
    log.merge(std::move(logs[k]));
    const auto append = [](std::vector<double>& to,
                           const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(p.latency_ms, parts[k].latency_ms);
    append(p.lateness_ms, parts[k].lateness_ms);
    append(p.wire_us, parts[k].wire_us);
  }
  p.end = begin + due.size();
  return p;
}

/// Calls Service::handle in-process on each request for `seconds`,
/// untraced; returns each call's wall time in microseconds, taken with
/// the same clock as the traced run's spans.
std::vector<double> run_in_process(const Stream& stream,
                                   serve::Service& service, std::size_t& pos,
                                   double seconds, ServedLog& log) {
  std::vector<double> handle_us;
  const auto t0 = Clock::now();
  for (; seconds_since(t0) < seconds; ++pos) {
    const serve::Request req = make_request(stream.text(pos), pos);
    const auto start = Clock::now();
    const serve::Response res = service.handle(req);
    handle_us.push_back(seconds_since(start) * 1e6);
    log.add(stream.source(pos), res);
  }
  return handle_us;
}

struct Replay {
  std::vector<double> unattributed_us;
  // model.parse / model.canonicalize durations (us) of resubmitted and of
  // fresh request texts.
  std::vector<double> parse_repeat_us, parse_fresh_us;
  std::vector<double> canonicalize_repeat_us, canonicalize_fresh_us;
  std::int64_t requests = 0;
  std::int64_t repeats = 0;
  std::int64_t hits = 0;
  std::int64_t exact = 0;
};

/// Calls Service::handle in-process on each request, then replays its
/// steps through the same public functions in handle's order.
Replay run_replay(const Stream& stream, serve::Service& service,
                  std::size_t& pos, double seconds, Tracer& tr,
                  ServedLog& log) {
  Replay rp;
  const auto t0 = Clock::now();
  for (; seconds_since(t0) < seconds; ++pos) {
    const std::size_t i = pos;
    const serve::Request req = make_request(stream.text(i), i);
    const Scoped request(&tr, "request", i);
    const int handle_span = tr.open("serve.handle", i, request.id());
    const serve::Response res = service.handle(req);
    const double handle_us = tr.close(handle_span);
    log.add(stream.source(i), res);

    const Scoped replay(&tr, "replay", i, request.id());
    double steps_us = 0.0;
    double last_us = 0.0;
    const auto timed = [&](const char* name, auto&& fn) {
      const int id = tr.open(name, i, replay.id());
      auto value = fn();
      last_us = tr.close(id);
      steps_us += last_us;
      return value;
    };
    const bool repeat = stream.repeat(i);
    const auto app = timed("model.parse", [&] {
      return model::read_application(req.model_text);
    });
    (repeat ? rp.parse_repeat_us : rp.parse_fresh_us).push_back(last_us);
    const model::Canonicalization canon =
        timed("model.canonicalize", [&] { return model::canonicalize(*app); });
    (repeat ? rp.canonicalize_repeat_us : rp.canonicalize_fresh_us)
        .push_back(last_us);
    const auto target = timed("let.comms_build", [&] {
      return std::make_unique<let::LetComms>(*app);
    });
    const serve::CacheKey key{canon.fingerprint, req.objective};
    const auto hit =
        timed("serve.lookup", [&] { return service.cache().lookup(key); });
    ++rp.requests;
    rp.repeats += repeat ? 1 : 0;
    rp.exact += canon.exact ? 1 : 0;
    if (hit) {
      ++rp.hits;
      const let::ScheduleResult translated = timed("serve.translate", [&] {
        return serve::translate_schedule(hit->schedule, canon, *target);
      });
      timed("guard.certify",
            [&] { return guard::certify(*target, translated).certified(); });
      timed("engine.objective", [&] {
        return engine::objective_of(*target, translated, req.objective);
      });
      timed("let.write_schedule",
            [&] { return let::write_schedule(*app, translated); });
    }
    rp.unattributed_us.push_back(handle_us - steps_us);
  }
  return rp;
}

}  // namespace

Result run_serve_hits(const Options& opt) {
  Result out;
  const Stream stream(opt.seed);
  const ServedLog::TextOf text_of = [&](std::uint64_t i) {
    return stream.text(i);
  };
  std::uint64_t digest = fnv1a("");
  for (std::uint64_t i = 0; i < kDigestLength; ++i) {
    digest = fnv1a(stream.text(i), digest);
  }
  out.record["corpus_digest"] = "\"" + hex64(digest) + "\"";
  out.record["repeat_share"] = json_number(kRepeatShare);
  out.record["repeat_window"] = std::to_string(kRepeatWindow);
  out.record["paced_rate_per_s"] = json_number(kPacedRate);
  const std::string socket =
      opt.work_dir + "/hits-" + std::to_string(getpid()) + ".sock";

  std::vector<double> setup;
  std::unique_ptr<LiveServer> live;
  // Starts `reps` servers one after another and keeps the last; each start
  // with its warm-up solves is one set-up sample.
  const auto set_up = [&](int reps) {
    for (int i = 0; i < reps; ++i) {
      live.reset();
      const auto t0 = Clock::now();
      live = start_warm(stream, socket, out);
      setup.push_back(seconds_since(t0));
    }
  };

  // The benchmark's own share of peak_rss_mb, before any server starts.
  out.record["rss_before_server_mb"] = json_number(current_rss_mb());
  ServedLog log;
  std::vector<double> objectives;
  std::size_t pos = 0;
  if (opt.digest) {
    set_up(1);
    // Fixed-size pass: one closed-loop connection, no clock.
    serve::Client client(socket);
    for (; pos < 2000; ++pos) {
      log.add(stream.source(pos),
              client.call(make_request(stream.text(pos), pos)));
    }
    out.attempted = log.responses();
    log.check(text_of, out, objectives, kCheckThreads);
    out.record["counts"] = "{\"responses\":" + std::to_string(log.responses()) +
                           ",\"cache_hits\":" +
                           std::to_string(log.cache_hits()) + "}";
    return out;
  }

  if (!opt.trace) {
    std::vector<double> rates, p50s, tails, p99s;
    std::size_t saturated_requests = 0, paced_requests = 0;
    const double round_s = opt.seconds / kRounds;
    set_up(kSetupReps);
    Clients saturated_clients = connect(socket);
    Clients paced_clients = connect(socket);
    for (int round = 0; round < kRounds; ++round) {
      // Responses are checked outside the timed window and then dropped:
      // after each slice of the saturated phase and after the paced phase.
      double saturated_s = 0.0;
      std::size_t at = pos;
      for (int slice = 0; slice < kSaturatedSlices; ++slice) {
        const Saturated part =
            run_saturated(stream, saturated_clients, at,
                          round_s / 4 / kSaturatedSlices, log);
        log.check(text_of, out, objectives, kCheckThreads);
        saturated_s += part.elapsed_s;
        at = part.end;
      }
      const Paced paced =
          run_paced(stream, paced_clients, at, round_s * 0.75,
                    opt.seed * kRounds + static_cast<std::uint64_t>(round),
                    log);
      log.check(text_of, out, objectives, kCheckThreads);
      saturated_requests += at - pos;
      paced_requests += paced.latency_ms.size();
      rates.push_back(static_cast<double>(at - pos) / saturated_s);
      pos = paced.end;
      p50s.push_back(percentile(paced.latency_ms, 50));
      tails.push_back(percentile(paced.latency_ms, kTailPercentile));
      p99s.push_back(percentile(paced.latency_ms, 99));
    }
    saturated_clients.clear();
    paced_clients.clear();
    live.reset();
    out.attempted = log.responses();
    out.record["rounds"] = std::to_string(kRounds);
    out.record["saturated_requests"] = std::to_string(saturated_requests);
    out.record["paced_requests"] = std::to_string(paced_requests);
    out.record["tail_percentile"] = json_number(kTailPercentile);
    out.record["latency_p99_ms"] = json_number(median(p99s));
    out.record["req_per_s_by_round"] = json_list(rates);
    out.record["latency_p50_ms_by_round"] = json_list(p50s);
    out.record["latency_tail_ms_by_round"] = json_list(tails);
    out.add("setup_s", median(setup), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.record["req_per_s_median"] = json_number(median(rates));
    out.record["latency_p50_ms_median"] = json_number(median(p50s));
    out.record["latency_tail_ms_median"] = json_number(median(tails));
    out.add("req_per_s", *std::max_element(rates.begin(), rates.end()),
            "1/s");
    out.add("latency_p50_ms", *std::min_element(p50s.begin(), p50s.end()),
            "ms");
    out.add("latency_tail_ms", *std::min_element(tails.begin(), tails.end()),
            "ms");
    // The mean: every response serves one of 12 cached schedules, so the
    // median would jump between their values with the traffic mix.
    out.add("objective_del", mean(objectives), "ratio");
    return out;
  }

  // Traced run: paced through the socket (lateness, wire) for a quarter of
  // the run, untraced in-process handle() calls for a quarter (the
  // reference for the tracing overhead), then the in-process replay
  // (layers) for the rest.
  set_up(kSetupReps);
  Tracer tracer;
  const double quarter = opt.seconds / 4;
  Clients paced_clients = connect(socket);
  const Paced paced =
      run_paced(stream, paced_clients, pos, quarter, opt.seed, log);
  paced_clients.clear();
  log.check(text_of, out, objectives, kCheckThreads);
  pos = paced.end;
  const std::vector<double> plain_us =
      run_in_process(stream, *live->service, pos, quarter, log);
  log.check(text_of, out, objectives, kCheckThreads);
  const Replay rp =
      run_replay(stream, *live->service, pos, 2 * quarter, tracer, log);
  log.check(text_of, out, objectives, kCheckThreads);
  live.reset();
  out.attempted = log.responses();
  out.layers = tracer.layers();

  for (const auto& [span, metric] :
       std::vector<std::pair<std::string, std::string>>{
           {"serve.handle", "serve.handle_us"},
           {"model.parse", "model.parse_us"},
           {"model.canonicalize", "model.canonicalize_us"},
           {"let.comms_build", "let.comms_build_us"},
           {"serve.lookup", "serve.lookup_us"},
           {"serve.translate", "serve.translate_us"},
           {"guard.certify", "guard.certify_us"},
           {"engine.objective", "engine.objective_us"},
           {"let.write_schedule", "let.write_schedule_us"}}) {
    add_layer_percentiles(out, tracer, span, metric, "us", 1.0, true);
  }
  for (const auto& [samples, metric] :
       std::vector<std::pair<const std::vector<double>*, std::string>>{
           {&rp.parse_repeat_us, "model.parse_us.repeat"},
           {&rp.parse_fresh_us, "model.parse_us.fresh"},
           {&rp.canonicalize_repeat_us, "model.canonicalize_us.repeat"},
           {&rp.canonicalize_fresh_us, "model.canonicalize_us.fresh"}}) {
    out.add(metric + ".p50", percentile(*samples, 50), "us");
    out.add(metric + ".mean", mean(*samples), "us");
  }
  out.add("serve.unattributed_us.p50", percentile(rp.unattributed_us, 50),
          "us");
  out.add("serve.unattributed_us.p99", percentile(rp.unattributed_us, 99),
          "us");
  out.add("serve.unattributed_us.mean", mean(rp.unattributed_us), "us");
  out.add("serve.wire_us.p50", percentile(paced.wire_us, 50), "us");
  out.add("serve.wire_us.p99", percentile(paced.wire_us, 99), "us");
  const auto share = [](std::int64_t part, std::int64_t whole) {
    return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                     : 0.0;
  };
  out.add("serve.hit_rate", share(rp.hits, rp.requests), "ratio");
  out.add("model.canonical_exact_share", share(rp.exact, rp.requests),
          "ratio");
  out.add("serve.byte_repeat_share", share(rp.repeats, rp.requests), "ratio");
  out.add("bench.lateness_ms", percentile(paced.lateness_ms, 99), "ms");
  // The spans' own cost on the calls they wrap: the median traced
  // handle() span against the median untraced handle() call.
  const double plain = median(plain_us);
  out.add("bench.trace_overhead_share",
          (median(tracer.durations("serve.handle")) - plain) / plain, "ratio");
  if (!tracer.write_json(opt.work_dir + "/serve-hits.trace.json")) {
    out.fail("cannot write the span dump");
  }
  return out;
}

}  // namespace perfbench
