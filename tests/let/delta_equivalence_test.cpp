// Equivalence of the compiled delta evaluator against the seed
// rebuild-per-candidate path (tests/support/ls_reference.hpp).
//
// Three layers of evidence:
//   1. improve_schedule and the seed search reference::improve walk the
//      same accepted-move sequence on WATERS and on randomized instances —
//      identical evaluation/improvement counts, identical objective bits,
//      identical final layouts and transfer lists;
//   2. DeltaEvaluator::evaluate agrees move-by-move with the seed
//      evaluation (order_feasible + build_from_groups +
//      worst_case_latencies + deadline check) over the seed's full first
//      neighbourhood;
//   3. the deduplicating worst_case_latencies agrees with the seed's
//      per-(slot, task) map-based loop, re-implemented here.
#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "../test_fixtures.hpp"
#include "letdma/let/compiled.hpp"
#include "letdma/let/delta.hpp"
#include "letdma/let/greedy.hpp"
#include "letdma/let/latency.hpp"
#include "letdma/let/local_search.hpp"
#include "letdma/model/generator.hpp"
#include "letdma/waters/waters.hpp"
#include "ls_reference.hpp"

namespace letdma::let {
namespace {

bool same_comm(const Communication& a, const Communication& b) {
  return a.dir == b.dir && a.task == b.task && a.label == b.label;
}

void expect_same_transfers(const std::vector<DmaTransfer>& a,
                           const std::vector<DmaTransfer>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dir, b[i].dir) << "transfer " << i;
    EXPECT_EQ(a[i].local_mem.value, b[i].local_mem.value) << "transfer " << i;
    EXPECT_EQ(a[i].bytes, b[i].bytes) << "transfer " << i;
    EXPECT_EQ(a[i].local_addr, b[i].local_addr) << "transfer " << i;
    EXPECT_EQ(a[i].global_addr, b[i].global_addr) << "transfer " << i;
    ASSERT_EQ(a[i].comms.size(), b[i].comms.size()) << "transfer " << i;
    for (std::size_t c = 0; c < a[i].comms.size(); ++c) {
      EXPECT_TRUE(same_comm(a[i].comms[c], b[i].comms[c]))
          << "transfer " << i << " comm " << c;
    }
  }
}

void expect_same_result(const ScheduleResult& a, const ScheduleResult& b,
                        const model::Application& app) {
  for (int m = 0; m < app.platform().num_memories(); ++m) {
    const model::MemoryId mem{m};
    ASSERT_EQ(a.layout.has_order(mem), b.layout.has_order(mem));
    if (a.layout.has_order(mem)) {
      EXPECT_EQ(a.layout.order(mem), b.layout.order(mem)) << "memory " << m;
    }
  }
  expect_same_transfers(a.s0_transfers, b.s0_transfers);
  ASSERT_EQ(a.schedule.all().size(), b.schedule.all().size());
  auto ita = a.schedule.all().begin();
  auto itb = b.schedule.all().begin();
  for (; ita != a.schedule.all().end(); ++ita, ++itb) {
    ASSERT_EQ(ita->first, itb->first);
    expect_same_transfers(ita->second, itb->second);
  }
}

/// The seed search and the library search on one start, full-run
/// comparison.
void expect_engines_agree(const LetComms& comms, const ScheduleResult& start,
                          LocalSearchGoal goal, int max_evaluations = 4000) {
  LocalSearchOptions opt;
  opt.goal = goal;
  opt.max_evaluations = max_evaluations;

  const LocalSearchResult a = reference::improve(comms, start, opt);
  const LocalSearchResult b = improve_schedule(comms, start, opt);

  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.improvements, b.improvements);
  EXPECT_EQ(a.objective, b.objective);  // exact: same arithmetic, same order
  expect_same_result(a.schedule, b.schedule, comms.app());
}

TEST(DeltaEquivalence, WatersLatencyGoal) {
  const auto app = waters::make_waters_app();
  LetComms lc(*app);
  const ScheduleResult start = GreedyScheduler::best_latency_ratio(lc);
  expect_engines_agree(lc, start, LocalSearchGoal::kMinMaxLatencyRatio);
}

TEST(DeltaEquivalence, WatersTransferGoal) {
  const auto app = waters::make_waters_app();
  LetComms lc(*app);
  const ScheduleResult start = GreedyScheduler::best_transfer_count(lc);
  expect_engines_agree(lc, start, LocalSearchGoal::kMinTransfers);
}

TEST(DeltaEquivalence, WatersWithAcquisitionDeadlines) {
  // Deadlines activate the per-class deadline rejection inside the sweep;
  // set them from the greedy latencies with headroom so the search stays
  // feasible yet the check is exercised on every candidate.
  const auto app = waters::make_waters_app();
  {
    LetComms probe(*app);
    const ScheduleResult g = GreedyScheduler(probe).build();
    const std::vector<Time> wc = worst_case_latencies(
        probe, g.schedule, ReadinessSemantics::kProposed);
    for (int i = 0; i < app->num_tasks(); ++i) {
      const Time lam = wc[static_cast<std::size_t>(i)];
      if (lam > 0) {
        app->set_acquisition_deadline(model::TaskId{i}, 2 * lam);
      }
    }
  }
  LetComms lc(*app);
  const ScheduleResult start = GreedyScheduler(lc).build();
  expect_engines_agree(lc, start, LocalSearchGoal::kMinMaxLatencyRatio);
}

TEST(DeltaEquivalence, HundredGeneratedInstances) {
  int exercised = 0;
  for (int seed = 0; seed < 110; ++seed) {
    model::GeneratorOptions opt;
    opt.seed = static_cast<std::uint64_t>(seed) + 1;
    opt.num_cores = 2 + seed % 3;
    opt.num_tasks = 6 + seed % 5;
    opt.num_labels = 8 + seed % 7;
    const auto app = model::generate_application(opt);
    LetComms lc(*app);
    if (lc.comms_at_s0().empty()) continue;
    const ScheduleResult start = GreedyScheduler(lc).build();
    if (start.s0_transfers.empty()) continue;
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Cap the walk so the seed rebuild path stays cheap under ASan; both
    // searches see the identical budget.
    expect_engines_agree(lc, start,
                         seed % 2 == 0 ? LocalSearchGoal::kMinMaxLatencyRatio
                                       : LocalSearchGoal::kMinTransfers,
                         /*max_evaluations=*/300);
    ++exercised;
  }
  EXPECT_GE(exercised, 100);
}

// ---------------------------------------------------------------------------
// Layer 2: move-by-move agreement with the seed evaluation.
// ---------------------------------------------------------------------------

void expect_moves_agree(const LetComms& comms, LocalSearchGoal goal) {
  const CompiledComms compiled(comms);
  const ScheduleResult start = GreedyScheduler(compiled).build();
  ASSERT_FALSE(start.s0_transfers.empty());

  reference::Groups groups;
  std::vector<std::vector<int>> id_groups;
  for (const DmaTransfer& t : start.s0_transfers) {
    groups.push_back(t.comms);
    std::vector<int> ids;
    for (const Communication& c : t.comms) ids.push_back(compiled.index_of(c));
    id_groups.push_back(std::move(ids));
  }
  DeltaEvaluator ev(compiled, id_groups, goal);

  // The full first neighbourhood: relocations, merges, splits in the
  // search's enumeration order.
  int checked = 0;
  for (const ScheduleDelta& move :
       reference::neighbour_moves(comms.app(), groups)) {
    const DeltaEval fast = ev.evaluate(move);
    const reference::Evaluation ref = reference::evaluate(
        comms, reference::apply_move(groups, move), goal);
    EXPECT_EQ(fast.feasible, ref.feasible) << "move " << checked;
    if (fast.feasible) {
      EXPECT_EQ(fast.objective, ref.objective) << "move " << checked;
    }
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(DeltaEquivalence, MoveByMoveOnWaters) {
  const auto app = waters::make_waters_app();
  LetComms lc(*app);
  expect_moves_agree(lc, LocalSearchGoal::kMinMaxLatencyRatio);
  expect_moves_agree(lc, LocalSearchGoal::kMinTransfers);
}

TEST(DeltaEquivalence, MoveByMoveOnFig1) {
  const auto app = testing::make_fig1_app();
  LetComms lc(*app);
  expect_moves_agree(lc, LocalSearchGoal::kMinMaxLatencyRatio);
}

// ---------------------------------------------------------------------------
// Layer 3: the deduplicating worst_case_latencies equals the seed loop.
// ---------------------------------------------------------------------------

std::map<int, Time> seed_worst_case(const LetComms& comms,
                                    const TransferSchedule& schedule,
                                    ReadinessSemantics sem) {
  const model::Application& app = comms.app();
  const LatencyModel lat(app.platform());
  std::map<int, Time> out;
  for (int i = 0; i < app.num_tasks(); ++i) out[i] = 0;
  for (const auto& [t, transfers] : schedule.all()) {
    for (int i = 0; i < app.num_tasks(); ++i) {
      if (t % app.task(model::TaskId{i}).period != 0) continue;
      const Time l = lat.task_latency(transfers, model::TaskId{i}, sem);
      out[i] = std::max(out[i], l);
    }
  }
  return out;
}

TEST(DeltaEquivalence, DedupedLatenciesMatchSeedLoop) {
  for (const auto sem :
       {ReadinessSemantics::kProposed, ReadinessSemantics::kGiotto}) {
    const auto app = waters::make_waters_app();
    LetComms lc(*app);
    const ScheduleResult g = GreedyScheduler::best_latency_ratio(lc);
    const std::vector<Time> fast = worst_case_latencies(lc, g.schedule, sem);
    const std::map<int, Time> slow = seed_worst_case(lc, g.schedule, sem);
    ASSERT_EQ(fast.size(), slow.size());
    for (const auto& [task, lam] : slow) {
      EXPECT_EQ(fast[static_cast<std::size_t>(task)], lam) << "task " << task;
    }
  }
}

TEST(DeltaEquivalence, CompiledSweepMatchesDerivedSchedule) {
  const auto app = waters::make_waters_app();
  LetComms lc(*app);
  const CompiledComms compiled(lc);
  const ScheduleResult g = GreedyScheduler(compiled).build();
  const std::vector<Time> swept = compiled.sweep_worst_case(g.s0_transfers);
  const std::vector<Time> scratch = worst_case_latencies(
      lc, g.schedule, ReadinessSemantics::kProposed);
  EXPECT_EQ(swept, scratch);
}

}  // namespace
}  // namespace letdma::let
