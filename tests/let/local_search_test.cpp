#include "letdma/let/local_search.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "../test_fixtures.hpp"
#include "letdma/baseline/giotto.hpp"
#include "letdma/let/compiled.hpp"
#include "letdma/let/schedule_io.hpp"
#include "letdma/let/validate.hpp"
#include "letdma/model/generator.hpp"
#include "letdma/support/error.hpp"
#include "letdma/waters/waters.hpp"

namespace letdma::let {
namespace {

double ratio_of(const model::Application& app, const LetComms& lc,
                const ScheduleResult& r) {
  const auto wc =
      worst_case_latencies(lc, r.schedule, ReadinessSemantics::kProposed);
  double worst = 0;
  for (int task = 0; task < static_cast<int>(wc.size()); ++task) {
    worst = std::max(
        worst, static_cast<double>(wc[static_cast<std::size_t>(task)]) /
                   static_cast<double>(app.task(model::TaskId{task}).period));
  }
  return worst;
}

TEST(LocalSearch, ImprovesGiottoAOrdering) {
  // Starting from the worst ordering (Giotto-A, one transfer per copy) the
  // search must find a strictly better latency configuration.
  const auto app = testing::make_fig1_app();
  LetComms lc(*app);
  const ScheduleResult start = baseline::giotto_dma_a(lc);
  const double start_ratio = ratio_of(*app, lc, start);
  const LocalSearchResult r = improve_schedule(lc, start);
  EXPECT_LT(r.objective, start_ratio);
  EXPECT_GT(r.improvements, 0);
  const ValidationReport rep =
      validate_schedule(lc, r.schedule.layout, r.schedule.schedule);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(LocalSearch, NeverWorseThanRebuiltStart) {
  const auto app = testing::make_fig1_app();
  LetComms lc(*app);
  const ScheduleResult start = GreedyScheduler(lc).build();
  const LocalSearchResult r = improve_schedule(lc, start);
  EXPECT_LE(r.objective, ratio_of(*app, lc, start) + 1e-9);
}

TEST(LocalSearch, MinTransfersGoalReducesTransferCount) {
  const auto app = testing::make_fig1_app();
  LetComms lc(*app);
  const ScheduleResult start = baseline::giotto_dma_a(lc);
  LocalSearchOptions opt;
  opt.goal = LocalSearchGoal::kMinTransfers;
  const LocalSearchResult r = improve_schedule(lc, start, opt);
  EXPECT_LT(r.schedule.s0_transfers.size(), start.s0_transfers.size());
  const ValidationReport rep =
      validate_schedule(lc, r.schedule.layout, r.schedule.schedule);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(LocalSearch, RespectsEvaluationBudget) {
  const auto app = testing::make_fig1_app();
  LetComms lc(*app);
  const ScheduleResult start = baseline::giotto_dma_a(lc);
  LocalSearchOptions opt;
  opt.max_evaluations = 10;
  const LocalSearchResult r = improve_schedule(lc, start, opt);
  EXPECT_LE(r.evaluations, 10);
}

TEST(LocalSearch, HonoursAcquisitionDeadlines) {
  // With a deadline only slightly above the greedy latency, every accepted
  // move must keep the configuration deadline-feasible.
  const auto app = testing::make_fig1_app();
  LetComms lc(*app);
  const ScheduleResult greedy = GreedyScheduler(lc).build();
  const auto wc = worst_case_latencies(lc, greedy.schedule,
                                       ReadinessSemantics::kProposed);
  const int t2 = app->find_task("tau2").value;
  app->set_acquisition_deadline(model::TaskId{t2}, wc.at(t2) + 1000);
  const LocalSearchResult r = improve_schedule(lc, greedy);
  ValidationOptions vopt;  // default includes the deadline check
  const ValidationReport rep =
      validate_schedule(lc, r.schedule.layout, r.schedule.schedule, vopt);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(LocalSearch, TransferCountRespectsGroupLowerBound) {
  // Transfers can never merge across (memory, direction) groups, so the
  // number of distinct groups at s0 is a hard lower bound.
  const auto app = testing::make_fig1_app();
  LetComms lc(*app);
  std::set<std::pair<int, int>> groups;
  for (const Communication& c : lc.comms_at_s0()) {
    groups.insert({local_memory_of(*app, c).value,
                   c.dir == Direction::kWrite ? 0 : 1});
  }
  LocalSearchOptions opt;
  opt.goal = LocalSearchGoal::kMinTransfers;
  opt.max_evaluations = 2000;
  const LocalSearchResult r =
      improve_schedule(lc, baseline::giotto_dma_a(lc), opt);
  EXPECT_GE(r.schedule.s0_transfers.size(), groups.size());
}

TEST(LocalSearch, EmptyStartRejected) {
  const auto app = testing::make_pair_app();
  LetComms lc(*app);
  ScheduleResult empty{MemoryLayout(*app), {}, {}};
  EXPECT_THROW(improve_schedule(lc, empty), support::PreconditionError);
}

TEST(LocalSearch, OnImprovementFiresOnInvokingThread) {
  // One call per accepted move, on the caller's thread, with strictly
  // decreasing objectives; the last call carries the returned schedule.
  // Observing the search must not change its result.
  const auto app = waters::make_waters_app();
  LetComms lc(*app);
  const CompiledComms compiled(lc);
  const ScheduleResult start = GreedyScheduler::best_latency_ratio(lc);
  LocalSearchOptions opt;
  opt.max_evaluations = 1 << 20;
  opt.max_improvements = 1 << 20;
  const LocalSearchResult plain = improve_schedule(compiled, start, opt);

  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  double last = 1e300;
  std::string last_text;
  opt.on_improvement = [&](const ScheduleResult& s, double obj) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_FALSE(s.s0_transfers.empty());
    EXPECT_LT(obj, last);  // strictly monotone improvements
    last = obj;
    last_text = write_schedule(*app, s);
    ++calls;
  };
  const LocalSearchResult r = improve_schedule(compiled, start, opt);
  EXPECT_GT(calls, 0);
  EXPECT_EQ(calls, r.improvements);
  EXPECT_EQ(last, r.objective);
  EXPECT_EQ(last_text, write_schedule(*app, r.schedule));
  EXPECT_EQ(r.evaluations, plain.evaluations);
  EXPECT_EQ(r.objective, plain.objective);
  EXPECT_EQ(write_schedule(*app, r.schedule),
            write_schedule(*app, plain.schedule));
}

class LocalSearchRandom : public ::testing::TestWithParam<int> {};

TEST_P(LocalSearchRandom, AlwaysValidAndMonotone) {
  model::GeneratorOptions gopt;
  gopt.seed = static_cast<std::uint64_t>(GetParam()) * 40503u + 5u;
  gopt.num_tasks = 6;
  gopt.num_labels = 5;
  const auto app = generate_application(gopt);
  LetComms lc(*app);
  if (lc.comms_at_s0().empty()) return;
  const ScheduleResult start = GreedyScheduler(lc).build();
  LocalSearchOptions opt;
  opt.max_evaluations = 300;
  const LocalSearchResult r = improve_schedule(lc, start, opt);
  ValidationOptions vopt;
  vopt.check_deadlines = false;
  vopt.check_slot_capacity = false;
  const ValidationReport rep =
      validate_schedule(lc, r.schedule.layout, r.schedule.schedule, vopt);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_LE(r.objective, ratio_of(*app, lc, start) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalSearchRandom, ::testing::Range(0, 10));

}  // namespace
}  // namespace letdma::let
