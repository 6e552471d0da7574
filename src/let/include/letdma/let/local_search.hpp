// Local-search improvement of a protocol configuration.
//
// Operates on the ordered partition of C(s0) into groups (each group = one
// intended transfer) with three move kinds:
//   * relocate a group to another position (re-ordering),
//   * merge two groups of the same (memory, direction),
//   * split a group in two.
// Candidates are enumerated lazily (generate-evaluate-discard) and scored
// by the incremental delta evaluator on the compiled instance
// (letdma/let/delta.hpp): feasibility from maintained order counters, the
// objective from cached group decompositions and the instant-class sweep.
// A full ScheduleResult is only rebuilt when a move is accepted. The
// verdicts match the seed rebuild-per-candidate path exactly (kept outside
// the library in tests/support/ls_reference.hpp as the equivalence oracle
// and the benchmark denominator); hill climbing with first-improvement,
// sequential and deterministic.
//
// This is an extension beyond the paper: a cheap anytime optimizer that
// closes much of the gap to the MILP on large instances and provides its
// warm starts.
#pragma once

#include <atomic>
#include <functional>

#include "letdma/let/greedy.hpp"

namespace letdma::let {

class CompiledComms;

enum class LocalSearchGoal {
  kMinMaxLatencyRatio,  // the OBJ-DEL metric (Eq. 5)
  kMinTransfers,        // the OBJ-DMAT metric (Eq. 4 proxy: s0 transfers)
};

struct LocalSearchOptions {
  LocalSearchGoal goal = LocalSearchGoal::kMinMaxLatencyRatio;
  /// Stop after this many accepted improvements.
  int max_improvements = 100;
  /// Stop after this many candidate evaluations.
  int max_evaluations = 4000;
  /// Wall-clock limit for the whole improvement run; <= 0 disables.
  double time_limit_sec = 0.0;
  /// Cooperative cancellation, polled before every candidate evaluation.
  /// The best-so-far result is returned on cancel. Not owned; may be null.
  const std::atomic<bool>* stop = nullptr;
  /// Invoked after every accepted move with the rebuilt schedule and its
  /// goal value — the engine adapter publishes these as incumbents so the
  /// MILP warm start sees mid-search improvements. May be empty. Called
  /// on the invoking thread; observing the search does not change it.
  std::function<void(const ScheduleResult&, double)> on_improvement;
};

struct LocalSearchResult {
  ScheduleResult schedule;
  double objective = 0.0;  // goal value of `schedule`
  int improvements = 0;
  int evaluations = 0;
};

/// Improves `start` under the goal; the result is never worse than the
/// best of `start` and its partition rebuild, and always passes
/// validate_schedule (structurally and on deadlines).
LocalSearchResult improve_schedule(const LetComms& comms,
                                   const ScheduleResult& start,
                                   LocalSearchOptions options = {});

/// Same, on a prebuilt compiled instance (avoids recompiling when the
/// caller already holds one — the engine adapters do).
LocalSearchResult improve_schedule(const CompiledComms& compiled,
                                   const ScheduleResult& start,
                                   LocalSearchOptions options = {});

}  // namespace letdma::let
