// Pieces shared by the two serving workloads: the response log that the
// outside correctness checks read, and an in-process server on a Unix
// socket inside the run directory.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "letdma/serve/server.hpp"
#include "letdma/serve/service.hpp"

namespace perfbench {

/// The responses of one phase, folded by (request text, schedule text):
/// the same request served the same schedule only needs checking once, but
/// every reported objective is compared against the recomputed one. A
/// request text is named by a number that `text_of` (see check()) maps
/// back to the text. The counts accumulate over the whole run; the folded
/// responses are dropped by check(), so a run checks after every phase and
/// keeps no more than one phase's responses.
class ServedLog {
 public:
  using TextOf = std::function<std::string(std::uint64_t)>;

  void add(std::uint64_t text, const letdma::serve::Response& response);
  void merge(ServedLog&& other);

  std::int64_t responses() const { return responses_; }
  std::int64_t cache_hits() const { return hits_; }
  std::int64_t near_misses() const { return near_misses_; }

  /// Outside checks, run after the timed window: each served schedule text
  /// is parsed against the requesting instance (let::read_schedule),
  /// re-certified (guard::certify) and its max lambda_i/T_i recomputed and
  /// compared with the response's objective_value. Every response that
  /// was not ok, not certified or without a schedule counts as failed.
  /// Appends the recomputed objective of every checked response to
  /// `objectives`, then forgets the checked responses. Runs on up to
  /// `threads` threads.
  void check(const TextOf& text_of, Result& out,
             std::vector<double>& objectives, int threads);

 private:
  struct Entry {
    std::string schedule;
    std::vector<double> reported;
  };
  using Key = std::pair<std::uint64_t, std::uint64_t>;  // text, schedule
  std::map<Key, Entry> unique_;
  std::int64_t bad_ = 0;  // responses not ok, uncertified or empty
  std::vector<std::string> errors_;  // the first few of them
  std::int64_t responses_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t near_misses_ = 0;
};

/// A Service behind a started Server. stop() joins every server thread.
struct LiveServer {
  LiveServer(letdma::serve::ServiceOptions service_options,
             const std::string& socket_path, int threads);
  ~LiveServer();
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  std::unique_ptr<letdma::serve::Service> service;
  std::unique_ptr<letdma::serve::Server> server;
};

}  // namespace perfbench
