// The seed local-search evaluator, kept outside the library as an oracle.
//
// Every candidate partition is materialized, rebuilt through
// build_from_groups and scored from the full worst-case latency
// recomputation. The library's compiled search (let::improve_schedule)
// must walk the same accepted-move sequence to the same objective bits
// and schedule: tests/let/delta_equivalence_test.cpp checks that, and
// bench/micro_localsearch measures the compiled search's speedup over
// this path. Not part of the installed library.
#pragma once

#include <vector>

#include "letdma/let/delta.hpp"
#include "letdma/let/local_search.hpp"

namespace letdma::let::reference {

using Groups = std::vector<std::vector<Communication>>;

struct Evaluation {
  bool feasible = false;
  double objective = 0.0;
};

/// Scores one ordered partition: Properties 1-2 on the group order, then
/// build_from_groups, worst_case_latencies and the acquisition deadlines.
/// The rebuilt schedule goes to `out` when it is feasible and `out` is set.
Evaluation evaluate(const LetComms& comms, const Groups& groups,
                    LocalSearchGoal goal, ScheduleResult* out = nullptr);

/// `g` with `move` applied: relocate, merge or split as ScheduleDelta
/// documents them.
Groups apply_move(const Groups& g, const ScheduleDelta& move);

/// The neighbourhood of `g` in the search's order: relocations within four
/// positions, merges of groups with the same (local memory, direction),
/// then halving splits of multi-communication groups.
std::vector<ScheduleDelta> neighbour_moves(const model::Application& app,
                                           const Groups& g);

/// First-improvement hill climbing over neighbour_moves, one group per
/// transfer of `start` to begin with. Honours the goal and both caps of
/// `options`; the wall clock, the stop token and the callback are left to
/// the library search.
LocalSearchResult improve(const LetComms& comms, const ScheduleResult& start,
                          const LocalSearchOptions& options);

}  // namespace letdma::let::reference
