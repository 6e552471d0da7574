// MILP formulation of the joint memory-allocation / transfer-scheduling
// problem (Section VI of the paper).
//
// Decision variables (Section VI-A):
//   AD_{k,a,b}  adjacency of slots in each memory          (binary)
//   CG_{z,g}    communication z carried by transfer g      (binary)
//   RG_{i,g}    last anchor communication of task i in g   (binary)
//   PL_{k,a}    slot position (relaxed continuous)
//   CGI_z/RGI_i 1-based transfer indices (relaxed continuous)
//   lambda_i    data-acquisition latency of task i
//
// Constraints 1-5 and 7-10 are generated eagerly; the contiguity family
// (Constraint 6), whose witness variables LG are cubic in the instance
// size, is separated lazily at integral branch-and-bound nodes: the
// candidate configuration is decoded and checked semantically for every
// instant of T*, and violated pair rows (plus the LG columns they
// reference) are added on demand. An eager mode exists for small
// instances and tests.
//
// Differences from the paper, all sound (documented in DESIGN.md):
//   * Constraint 3's max-equality is relaxed to RGI_i >= CGI_z per anchor
//     (the objective/deadline pressure recovers the max);
//   * tasks without LET reads anchor on their last write (rule R1);
//   * a transfer is explicitly restricted to one (memory, direction) group
//     (implicit in the paper's transfer definition);
//   * two communications moving the same label in the same direction are
//     never grouped (a single DMA copy cannot duplicate a source);
//   * Constraint 10 uses one max-index variable per distinct communication
//     pattern of T* (a sound over-approximation of the paper's RGIT).
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "letdma/let/greedy.hpp"
#include "letdma/let/transfer.hpp"
#include "letdma/milp/solver.hpp"

namespace letdma::let {

enum class MilpObjective {
  kNone,             // NO-OBJ: pure feasibility
  kMinTransfers,     // OBJ-DMAT: minimize max_i RGI_i          (Eq. 4)
  kMinLatencyRatio,  // OBJ-DEL:  minimize max_i lambda_i / T_i (Eq. 5)
};

struct MilpSchedulerOptions {
  MilpObjective objective = MilpObjective::kNone;
  milp::MilpOptions solver;
  /// Number of transfer indices G available at s0; -1 means |C(s0)|
  /// (always sufficient: one transfer per communication).
  int max_transfers = -1;
  /// Seed the solver with the greedy schedule when it is feasible.
  bool greedy_warm_start = true;
  /// External configuration tried as the *first* warm-start candidate,
  /// before any greedy candidate (letdma::engine passes the portfolio's
  /// shared incumbent here). Not owned; must outlive solve().
  const ScheduleResult* warm_start_hint = nullptr;
  /// Called on the solving thread with the decoded configuration every
  /// time the branch and bound improves its incumbent; `objective` is in
  /// the model sense of the selected MilpObjective. Decoding costs one
  /// extraction per improvement — cheap next to the node solves.
  std::function<void(const ScheduleResult&, double objective)> on_incumbent;
  /// Generate the full Constraint-6 family up front instead of lazily.
  bool eager_contiguity = false;
  /// Encode Constraint 3 as the paper's exact equality
  /// RGI_i = max_z CGI_z (via selector binaries and big-M upper bounds)
  /// instead of the default sound relaxation RGI_i >= CGI_z. The relaxation
  /// is cheaper and equivalent under both objectives; the exact form exists
  /// for fidelity checks and pure-feasibility runs with tight deadlines.
  bool exact_last_read = false;
  /// Symmetry breaking over *twin labels*: labels with identical size, the
  /// same writer task and the same reader set are interchangeable
  /// (relabelling one as the other maps feasible configurations to
  /// feasible configurations of equal cost), so for each twin orbit the
  /// write-communication transfer indices are ordered by label id
  /// (CGI chain rows). Warm-start candidates are canonicalized by the same
  /// permutation before seeding, so they always satisfy the chain.
  bool symmetry_breaking = true;
};

struct MilpScheduleResult {
  milp::MilpStatus status = milp::MilpStatus::kLimit;
  /// Present when status is kOptimal or kFeasible.
  std::optional<ScheduleResult> schedule;
  double objective = 0.0;
  milp::MilpStats stats;
  int dma_transfers_at_s0 = 0;  // non-empty transfers in the solution

  bool feasible() const { return schedule.has_value(); }
};

class MilpScheduler {
 public:
  MilpScheduler(const LetComms& comms, MilpSchedulerOptions options = {});

  MilpScheduleResult solve();

  /// Number of variables / eager rows of the built model (for reporting).
  int model_vars() const;
  int model_rows() const;
  /// The built model (eager rows only; solve() adds presolve cuts and lazy
  /// rows to it). For tests and benches that exercise the LP layer on it.
  const milp::Model& model() const;

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace letdma::let
