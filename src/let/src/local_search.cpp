#include "letdma/let/local_search.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "letdma/let/compiled.hpp"
#include "letdma/let/delta.hpp"
#include "letdma/obs/obs.hpp"
#include "letdma/obs/sampler.hpp"
#include "letdma/support/error.hpp"

namespace letdma::let {
namespace {

/// Search budget; semantics match the seed: the stop token and the wall
/// clock are polled before every candidate, the evaluation and improvement
/// caps are strict.
class SearchBudget {
 public:
  explicit SearchBudget(const LocalSearchOptions& opt) : opt_(opt) {
    if (opt_.time_limit_sec > 0) {
      deadline_ =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(opt_.time_limit_sec));
    }
  }

  bool left(int evaluations, int improvements) const {
    if (opt_.stop != nullptr && opt_.stop->load(std::memory_order_relaxed)) {
      return false;
    }
    if (std::chrono::steady_clock::now() >= deadline_) return false;
    return evaluations < opt_.max_evaluations &&
           improvements < opt_.max_improvements;
  }

 private:
  const LocalSearchOptions& opt_;
  std::chrono::steady_clock::time_point deadline_ =
      std::chrono::steady_clock::time_point::max();
};

/// Lazily enumerates the moves of the current partition: relocations,
/// merges, splits, in the seed search's order, so the accepted-move
/// sequence (and with it evaluations, improvements, objective and the
/// final schedule) matches the seed rebuild-per-candidate search.
/// Regenerated after every accepted move.
class MoveGen {
 public:
  explicit MoveGen(const DeltaEvaluator& ev) : ev_(ev), n_(ev.num_groups()) {}

  std::optional<ScheduleDelta> next() {
    while (true) {
      switch (phase_) {
        case 0: {  // relocations: i x [i-4, i+4]
          if (i_ >= n_) {
            phase_ = 1;
            i_ = 0;
            j_ = 1;
            break;
          }
          if (!reloc_started_) {
            j_ = std::max(0, i_ - 4);
            reloc_started_ = true;
          }
          while (j_ <= std::min(n_ - 1, i_ + 4)) {
            const int j = j_++;
            if (j == i_) continue;
            return ScheduleDelta{ScheduleDelta::Kind::kRelocate, i_, j};
          }
          ++i_;
          reloc_started_ = false;
          break;
        }
        case 1: {  // merges: i < j with equal (memory, direction)
          if (i_ >= n_) {
            phase_ = 2;
            i_ = 0;
            break;
          }
          while (j_ < n_) {
            const int j = j_++;
            if (ev_.group_mem(i_) == ev_.group_mem(j) &&
                ev_.group_is_write(i_) == ev_.group_is_write(j)) {
              return ScheduleDelta{ScheduleDelta::Kind::kMerge, i_, j};
            }
          }
          ++i_;
          j_ = i_ + 1;
          break;
        }
        case 2: {  // splits of multi-communication groups
          while (i_ < n_) {
            const int i = i_++;
            if (ev_.group(i).size() >= 2) {
              return ScheduleDelta{ScheduleDelta::Kind::kSplit, i, -1};
            }
          }
          return std::nullopt;
        }
      }
    }
  }

 private:
  const DeltaEvaluator& ev_;
  const int n_;
  int phase_ = 0;
  int i_ = 0;
  int j_ = 1;
  bool reloc_started_ = false;
};

LocalSearchResult improve_compiled(const CompiledComms& compiled,
                                   const ScheduleResult& start,
                                   const LocalSearchOptions& options) {
  SearchBudget budget(options);

  std::vector<std::vector<int>> groups;
  groups.reserve(start.s0_transfers.size());
  for (const DmaTransfer& t : start.s0_transfers) {
    std::vector<int> ids;
    ids.reserve(t.comms.size());
    for (const Communication& c : t.comms) {
      ids.push_back(compiled.index_of(c));
    }
    groups.push_back(std::move(ids));
  }
  DeltaEvaluator ev(compiled, std::move(groups), options.goal);

  LocalSearchResult best{
      ScheduleResult{MemoryLayout(compiled.app()), {}, {}}, 0.0, 0, 0};
  ++best.evaluations;
  {
    const DeltaEval seed = ev.evaluate_current();
    LETDMA_ENSURE(seed.feasible,
                  "the starting schedule does not rebuild feasibly");
    best.objective = seed.objective;
  }

  bool materialized = false;
  bool improved = true;
  while (improved && budget.left(best.evaluations, best.improvements)) {
    improved = false;
    MoveGen gen(ev);
    while (const std::optional<ScheduleDelta> move = gen.next()) {
      if (!budget.left(best.evaluations, best.improvements)) break;
      ++best.evaluations;
      static obs::Counter accepted("let.local_search.accepted");
      static obs::Counter rejected("let.local_search.rejected");
      const DeltaEval cand = ev.evaluate(*move);
      if (cand.feasible && cand.objective < best.objective - 1e-12) {
        accepted.add();
        ev.apply(*move);
        best.objective = cand.objective;
        best.improvements += 1;
        improved = true;
        if (options.on_improvement) {
          best.schedule = ev.materialize();
          materialized = true;
          options.on_improvement(best.schedule, best.objective);
        } else {
          materialized = false;
        }
        break;  // first improvement: restart the neighbourhood
      } else {
        rejected.add();
      }
    }
  }
  if (!materialized) best.schedule = ev.materialize();
  return best;
}

}  // namespace

LocalSearchResult improve_schedule(const LetComms& comms,
                                   const ScheduleResult& start,
                                   LocalSearchOptions options) {
  return improve_schedule(CompiledComms(comms), start, options);
}

LocalSearchResult improve_schedule(const CompiledComms& compiled,
                                   const ScheduleResult& start,
                                   LocalSearchOptions options) {
  LETDMA_ENSURE(!start.s0_transfers.empty(),
                "local search needs a non-empty starting schedule");
  obs::ScopedSpan span("let.local_search", "let");
  // Gauge timelines for traced runs: accept/reject/eval rates and the
  // delta-cache hit rate, derived from the always-on counters. No sink
  // attached => start() is a no-op and the search pays nothing.
  obs::Sampler sampler({0.05, "let", 0});
  sampler.add_counter_rate("ls.accept_per_sec", "let.local_search.accepted");
  sampler.add_counter_rate("ls.reject_per_sec", "let.local_search.rejected");
  sampler.add_gauge("ls.delta_cache_hit_rate", [] {
    obs::Registry& reg = obs::Registry::instance();
    const double hits =
        static_cast<double>(reg.counter_value("let.delta.cache_hits"));
    const double misses =
        static_cast<double>(reg.counter_value("let.delta.cache_misses"));
    return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  });
  sampler.start();
  LocalSearchResult best = improve_compiled(compiled, start, options);
  static obs::Counter evaluations("let.local_search.evaluations");
  evaluations.add(best.evaluations);
  span.arg("evaluations", static_cast<std::int64_t>(best.evaluations));
  span.arg("improvements", static_cast<std::int64_t>(best.improvements));
  span.arg("objective", best.objective);
  return best;
}

}  // namespace letdma::let
