// MilpStats instrumentation: the solver must record when incumbents were
// found, sample the optimality gap, and route its diagnostics through the
// obs logging facility.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "letdma/milp/model.hpp"
#include "letdma/milp/solver.hpp"
#include "letdma/obs/histogram.hpp"
#include "letdma/obs/obs.hpp"

namespace letdma::milp {
namespace {

constexpr double kTol = 1e-6;

/// A knapsack with enough items to force real branching.
Model make_knapsack(int items) {
  Model m;
  LinExpr weight;
  LinExpr profit;
  for (int i = 0; i < items; ++i) {
    const Var x = m.add_binary("x" + std::to_string(i));
    weight += static_cast<double>(3 + (i * 7) % 11) * x;
    profit += static_cast<double>(5 + (i * 13) % 17) * x;
  }
  m.add_constraint(weight, Sense::kLe, 4.0 * items / 3.0, "capacity");
  m.set_objective(profit, ObjSense::kMaximize);
  return m;
}

TEST(MilpStats, IncumbentTimelineIsPopulated) {
  Model m = make_knapsack(14);
  const MilpResult r = MilpSolver(m).solve();
  ASSERT_EQ(r.status, MilpStatus::kOptimal);

  EXPECT_GE(r.stats.first_incumbent_sec, 0.0)
      << "an optimal solve must have found at least one incumbent";
  ASSERT_FALSE(r.stats.incumbents.empty());
  EXPECT_EQ(r.stats.incumbent_improvements(),
            static_cast<int>(r.stats.incumbents.size()));

  // The timeline is causally ordered and ends at the reported optimum.
  double prev_t = 0.0;
  for (const IncumbentSample& s : r.stats.incumbents) {
    EXPECT_GE(s.t_sec, prev_t);
    EXPECT_GE(s.nodes, 0);
    prev_t = s.t_sec;
  }
  EXPECT_NEAR(r.stats.incumbents.front().t_sec, r.stats.first_incumbent_sec,
              kTol);
  EXPECT_NEAR(r.stats.incumbents.back().objective, r.objective, kTol);
  EXPECT_GT(r.stats.nodes_explored, 0);
  EXPECT_GE(r.stats.wall_sec, 0.0);
}

TEST(MilpStats, NoIncumbentOnInfeasibleProblem) {
  Model m;
  const Var x = m.add_integer(0, 1, "x");
  m.add_constraint(LinExpr(x), Sense::kGe, 0.4, "lo");
  m.add_constraint(LinExpr(x), Sense::kLe, 0.6, "hi");
  const MilpResult r = MilpSolver(m).solve();
  ASSERT_EQ(r.status, MilpStatus::kInfeasible);
  EXPECT_LT(r.stats.first_incumbent_sec, 0.0);
  EXPECT_TRUE(r.stats.incumbents.empty());
  EXPECT_EQ(r.stats.incumbent_improvements(), 0);
}

TEST(MilpStats, GapSamplesAreWellFormed) {
  // Large enough that the 256-node sampling cadence fires at least once
  // only on slow machines — so only check invariants, not presence.
  Model m = make_knapsack(18);
  const MilpResult r = MilpSolver(m).solve();
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  for (const GapSample& g : r.stats.gap_timeline) {
    EXPECT_GE(g.gap, -kTol);
    EXPECT_GE(g.t_sec, 0.0);
    EXPECT_GE(g.nodes, 0);
  }
}

// Every mode times every 16th node LP into milp.node_lp_us, the epoch
// loop included.
TEST(MilpStats, DeterministicModeSamplesNodeLpTimes) {
  const obs::Histogram node_lp("milp.node_lp_us");
  const std::int64_t before = node_lp.snapshot().count;
  Model m = make_knapsack(40);
  MilpOptions opt;
  opt.deterministic = true;
  opt.threads = 2;
  const MilpResult r = MilpSolver(m, opt).solve();
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  ASSERT_GE(r.stats.nodes_explored, 16);
  EXPECT_GE(node_lp.snapshot().count - before, r.stats.nodes_explored / 16);
}

/// Counts milp.gap counter events routed through the obs registry.
class GapCounterCapture : public obs::Sink {
 public:
  void consume(const obs::Event& event) override {
    if (event.phase == obs::Phase::kCounter && event.name == "milp.gap") {
      std::lock_guard<std::mutex> lock(mutex_);
      ++count_;
    }
  }

  int count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }

 private:
  mutable std::mutex mutex_;
  int count_ = 0;
};

// Each gap sample is mirrored as a milp.gap counter in every mode, so the
// closing sample of a deterministic solve shows up in a trace.
TEST(MilpStats, DeterministicModeEmitsGapCounters) {
  if (!LETDMA_OBS_ENABLED) GTEST_SKIP() << "tracing compiled out";
  auto capture = std::make_shared<GapCounterCapture>();
  obs::Registry::instance().attach(capture);
  Model m = make_knapsack(14);
  MilpOptions opt;
  opt.deterministic = true;
  opt.threads = 2;
  const MilpResult r = MilpSolver(m, opt).solve();
  obs::Registry::instance().detach(capture);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  ASSERT_FALSE(r.stats.gap_timeline.empty());
  EXPECT_EQ(capture->count(),
            static_cast<int>(r.stats.gap_timeline.size()));
}

/// Captures log events routed through the obs registry.
class LogCapture : public obs::Sink {
 public:
  void consume(const obs::Event& event) override {
    if (event.phase != obs::Phase::kLog) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (!event.args.empty()) {
      lines_.push_back(event.category + ": " +
                       std::get<std::string>(event.args[0].value));
    }
  }
  bool wants_logs() const override { return true; }

  std::vector<std::string> lines() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
};

TEST(MilpStats, LogOptionRoutesThroughObs) {
  auto capture = std::make_shared<LogCapture>();
  obs::Registry::instance().attach(capture);

  Model m = make_knapsack(10);
  MilpOptions opt;
  opt.log = true;
  MilpSolver solver(m, opt);
  const MilpResult r = solver.solve();
  obs::Registry::instance().detach(capture);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);

  bool saw_incumbent_line = false;
  for (const std::string& line : capture->lines()) {
    if (line.find("milp: incumbent") != std::string::npos) {
      saw_incumbent_line = true;
    }
  }
  EXPECT_TRUE(saw_incumbent_line)
      << "MilpOptions::log must emit incumbent lines via obs::log";
}

}  // namespace
}  // namespace letdma::milp
