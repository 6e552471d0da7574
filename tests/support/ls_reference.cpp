#include "ls_reference.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "letdma/let/latency.hpp"
#include "letdma/support/error.hpp"

namespace letdma::let::reference {
namespace {

/// Properties 1-2 on an ordered partition (cheap pre-filter before the
/// expensive rebuild): per task, writes strictly before reads; per label,
/// the write strictly before every read.
bool order_feasible(const Groups& groups) {
  std::map<int, int> task_write_max, task_read_min;
  std::map<int, int> label_write, label_read_min;
  for (int gi = 0; gi < static_cast<int>(groups.size()); ++gi) {
    for (const Communication& c : groups[static_cast<std::size_t>(gi)]) {
      if (c.dir == Direction::kWrite) {
        auto [it, fresh] = task_write_max.try_emplace(c.task.value, gi);
        if (!fresh) it->second = std::max(it->second, gi);
        label_write[c.label.value] = gi;
      } else {
        auto [it, fresh] = task_read_min.try_emplace(c.task.value, gi);
        if (!fresh) it->second = std::min(it->second, gi);
        auto [lt, lfresh] = label_read_min.try_emplace(c.label.value, gi);
        if (!lfresh) lt->second = std::min(lt->second, gi);
      }
    }
  }
  for (const auto& [task, wmax] : task_write_max) {
    const auto it = task_read_min.find(task);
    if (it != task_read_min.end() && wmax >= it->second) return false;
  }
  for (const auto& [label, wg] : label_write) {
    const auto it = label_read_min.find(label);
    if (it != label_read_min.end() && wg >= it->second) return false;
  }
  return true;
}

}  // namespace

Evaluation evaluate(const LetComms& comms, const Groups& groups,
                    LocalSearchGoal goal, ScheduleResult* out) {
  Evaluation ev;
  if (!order_feasible(groups)) return ev;
  const model::Application& app = comms.app();
  ScheduleResult built = build_from_groups(comms, groups);
  // Deadlines (where set) must hold at every instant.
  const std::vector<Time> wc = worst_case_latencies(
      comms, built.schedule, ReadinessSemantics::kProposed);
  double worst_ratio = 0.0;
  for (int task = 0; task < static_cast<int>(wc.size()); ++task) {
    const model::Task& t = app.task(model::TaskId{task});
    const Time lam = wc[static_cast<std::size_t>(task)];
    if (t.acquisition_deadline && lam > *t.acquisition_deadline) return ev;
    worst_ratio = std::max(worst_ratio, static_cast<double>(lam) /
                                            static_cast<double>(t.period));
  }
  ev.feasible = true;
  ev.objective = goal == LocalSearchGoal::kMinTransfers
                     ? static_cast<double>(built.s0_transfers.size())
                     : worst_ratio;
  if (out != nullptr) *out = std::move(built);
  return ev;
}

Groups apply_move(const Groups& g, const ScheduleDelta& move) {
  Groups cand = g;
  switch (move.kind) {
    case ScheduleDelta::Kind::kRelocate: {
      std::vector<Communication> moved =
          std::move(cand[static_cast<std::size_t>(move.from)]);
      cand.erase(cand.begin() + move.from);
      cand.insert(cand.begin() + move.to, std::move(moved));
      break;
    }
    case ScheduleDelta::Kind::kMerge: {
      auto& dst = cand[static_cast<std::size_t>(move.from)];
      const auto& src = cand[static_cast<std::size_t>(move.to)];
      dst.insert(dst.end(), src.begin(), src.end());
      cand.erase(cand.begin() + move.to);
      break;
    }
    case ScheduleDelta::Kind::kSplit: {
      auto& grp = cand[static_cast<std::size_t>(move.from)];
      const std::size_t half = grp.size() / 2;
      std::vector<Communication> tail(
          grp.begin() + static_cast<std::ptrdiff_t>(half), grp.end());
      grp.resize(half);
      cand.insert(cand.begin() + move.from + 1, std::move(tail));
      break;
    }
  }
  return cand;
}

std::vector<ScheduleDelta> neighbour_moves(const model::Application& app,
                                           const Groups& g) {
  std::vector<ScheduleDelta> out;
  const int n = static_cast<int>(g.size());
  for (int i = 0; i < n; ++i) {
    for (int j = std::max(0, i - 4); j <= std::min(n - 1, i + 4); ++j) {
      if (i != j) out.push_back({ScheduleDelta::Kind::kRelocate, i, j});
    }
  }
  auto group_key = [&](const std::vector<Communication>& grp) {
    return std::pair<int, int>{local_memory_of(app, grp.front()).value,
                               grp.front().dir == Direction::kWrite ? 0 : 1};
  };
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (group_key(g[static_cast<std::size_t>(i)]) ==
          group_key(g[static_cast<std::size_t>(j)])) {
        out.push_back({ScheduleDelta::Kind::kMerge, i, j});
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    if (g[static_cast<std::size_t>(i)].size() >= 2) {
      out.push_back({ScheduleDelta::Kind::kSplit, i, -1});
    }
  }
  return out;
}

LocalSearchResult improve(const LetComms& comms, const ScheduleResult& start,
                          const LocalSearchOptions& options) {
  const auto left = [&](const LocalSearchResult& r) {
    return r.evaluations < options.max_evaluations &&
           r.improvements < options.max_improvements;
  };
  Groups groups;
  for (const DmaTransfer& t : start.s0_transfers) groups.push_back(t.comms);

  LocalSearchResult best{ScheduleResult{MemoryLayout(comms.app()), {}, {}},
                         0.0, 0, 0};
  ++best.evaluations;
  const Evaluation seed =
      evaluate(comms, groups, options.goal, &best.schedule);
  LETDMA_ENSURE(seed.feasible,
                "the starting schedule does not rebuild feasibly");
  best.objective = seed.objective;

  bool improved = true;
  while (improved && left(best)) {
    improved = false;
    for (const ScheduleDelta& move : neighbour_moves(comms.app(), groups)) {
      if (!left(best)) break;
      ++best.evaluations;
      Groups cand = apply_move(groups, move);
      ScheduleResult built{MemoryLayout(comms.app()), {}, {}};
      const Evaluation ev = evaluate(comms, cand, options.goal, &built);
      if (ev.feasible && ev.objective < best.objective - 1e-12) {
        best.schedule = std::move(built);
        best.objective = ev.objective;
        best.improvements += 1;
        groups = std::move(cand);
        improved = true;
        break;  // first improvement: restart the neighbourhood
      }
    }
  }
  return best;
}

}  // namespace letdma::let::reference
