// Micro-benchmarks (E6) for the scheduling-side components: local search,
// presolve, multi-channel evaluation, and schedule (de)serialization.
#include <benchmark/benchmark.h>

#include <memory>

#include "letdma/let/local_search.hpp"
#include "letdma/let/multichannel.hpp"
#include "letdma/let/schedule_io.hpp"
#include "letdma/milp/presolve.hpp"
#include "letdma/model/generator.hpp"
#include "letdma/support/rng.hpp"

using namespace letdma;

namespace {

std::unique_ptr<model::Application> chain_app(int n) {
  model::GeneratorOptions opt;
  opt.num_cores = 4;
  opt.num_tasks = n;
  opt.num_labels = n;
  opt.seed = 1234;
  return generate_application(opt);
}

void BM_LocalSearchImprove(benchmark::State& state) {
  const auto app = chain_app(static_cast<int>(state.range(0)));
  const let::LetComms comms(*app);
  if (comms.comms_at_s0().empty()) {
    state.SkipWithError("no inter-core comms");
    return;
  }
  const let::ScheduleResult start = let::GreedyScheduler(comms).build();
  for (auto _ : state) {
    let::LocalSearchOptions opt;
    opt.max_evaluations = 100;
    const let::LocalSearchResult r = improve_schedule(comms, start, opt);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_LocalSearchImprove)->Arg(8)->Arg(12);

void BM_Presolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  support::Rng rng(5);
  milp::Model m;
  std::vector<milp::Var> vars;
  for (int i = 0; i < n; ++i) {
    vars.push_back(m.add_binary("x" + std::to_string(i)));
  }
  for (int r = 0; r < n; ++r) {
    milp::LinExpr row;
    for (int i = 0; i < n; ++i) {
      if (rng.chance(0.3)) {
        row += static_cast<double>(rng.uniform_int(1, 5)) * vars[i];
      }
    }
    m.add_constraint(row, milp::Sense::kLe,
                     static_cast<double>(rng.uniform_int(2, 8)),
                     "r" + std::to_string(r));
  }
  for (auto _ : state) {
    const milp::PresolveResult r = milp::presolve_bounds(m);
    benchmark::DoNotOptimize(r.tightenings);
  }
}
BENCHMARK(BM_Presolve)->Arg(50)->Arg(200);

void BM_MultiChannelEval(benchmark::State& state) {
  const auto app = chain_app(12);
  const let::LetComms comms(*app);
  if (comms.comms_at_s0().empty()) {
    state.SkipWithError("no inter-core comms");
    return;
  }
  const let::ScheduleResult g = let::GreedyScheduler(comms).build();
  const int channels = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const let::MultiChannelReport r =
        schedule_on_channels(*app, g.s0_transfers, channels);
    benchmark::DoNotOptimize(r.makespan);
  }
}
BENCHMARK(BM_MultiChannelEval)->Arg(1)->Arg(4);

void BM_ScheduleRoundTrip(benchmark::State& state) {
  const auto app = chain_app(10);
  const let::LetComms comms(*app);
  if (comms.comms_at_s0().empty()) {
    state.SkipWithError("no inter-core comms");
    return;
  }
  const let::ScheduleResult g = let::GreedyScheduler(comms).build();
  for (auto _ : state) {
    const std::string text = let::write_schedule(*app, g);
    const let::ScheduleResult loaded = let::read_schedule(comms, text);
    benchmark::DoNotOptimize(loaded.s0_transfers.size());
  }
}
BENCHMARK(BM_ScheduleRoundTrip);

}  // namespace

BENCHMARK_MAIN();
