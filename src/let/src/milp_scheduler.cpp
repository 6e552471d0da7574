#include "letdma/let/milp_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <tuple>

#include "letdma/let/latency.hpp"
#include "letdma/let/local_search.hpp"
#include "letdma/obs/obs.hpp"
#include "letdma/support/error.hpp"

namespace letdma::let {
namespace {

using milp::LinExpr;
using milp::Sense;
using milp::Var;

constexpr double kUsPerNs = 1e-3;

}  // namespace

struct MilpScheduler::Impl {
  const LetComms& comms;
  const model::Application& app;
  MilpSchedulerOptions opt;
  milp::Model model;

  // --- problem data -------------------------------------------------------
  std::vector<Communication> cset;  // C(s0), indexed by z
  int num_comms = 0;
  int big_g = 0;           // number of transfer indices G
  double lambda_o_us = 0;  // per-transfer overhead in us
  std::vector<double> copy_us;  // per-communication copy cost in us

  struct GroupInfo {
    model::MemoryId mem;
    Direction dir = Direction::kWrite;
    std::vector<int> members;  // comm indices
  };
  std::vector<GroupInfo> groups;
  std::vector<int> group_of;  // per comm

  // Per memory: slot list; node indexing is 0..L-1 slots, L begin, L+1 end.
  std::vector<std::vector<Slot>> slots;

  // --- variables -----------------------------------------------------------
  std::map<std::tuple<int, int, int>, Var> ad;  // (mem, a_node, b_node)
  std::vector<std::vector<Var>> pl;             // [mem][slot]
  std::vector<std::vector<Var>> cg;             // [z][g]
  std::vector<Var> cgi;                         // [z]
  std::map<int, std::vector<Var>> rg;           // task -> [g]
  std::map<int, Var> rgi;                       // task
  std::map<int, Var> lambda;                    // task
  std::vector<std::vector<Var>> gm;             // [g][group]
  std::map<int, std::vector<int>> anchors;      // task -> anchor comm indices

  // Lazily created contiguity witnesses: (group, z_a, z_c, g) -> LG var.
  std::map<std::tuple<int, int, int, int>, Var> lg;
  // Deduplication of separated pair rows: (g, zi, zj, pattern fingerprint).
  std::set<std::tuple<int, int, int, std::size_t>> added_pair_rows;

  Impl(const LetComms& c, MilpSchedulerOptions o)
      : comms(c), app(c.app()), opt(o) {}

  // ==========================================================================
  // Model construction
  // ==========================================================================

  void build() {
    cset = comms.comms_at_s0();
    num_comms = static_cast<int>(cset.size());
    LETDMA_ENSURE(num_comms > 0,
                  "the application has no inter-core LET communications");
    big_g = opt.max_transfers > 0
                ? std::min(opt.max_transfers, num_comms)
                : num_comms;
    const model::DmaParams& dma = app.platform().dma();
    lambda_o_us =
        static_cast<double>(dma.per_transfer_overhead()) * kUsPerNs;
    copy_us.resize(static_cast<std::size_t>(num_comms));
    for (int z = 0; z < num_comms; ++z) {
      copy_us[static_cast<std::size_t>(z)] =
          static_cast<double>(
              dma.copy_time(app.label(cset[static_cast<std::size_t>(z)].label)
                                .size_bytes)) *
          kUsPerNs;
    }
    build_groups();
    build_slots();
    build_layout_vars();      // AD, PL + Constraints 4, 5
    build_assignment_vars();  // CG, CGI, GM + Constraints 1, single-group
    build_anchor_vars();      // RG, RGI + Constraints 2, 3
    build_order_rows();       // Constraints 7, 8
    build_latency_rows();     // Constraint 9 (+ deadline bounds)
    build_slotfit_rows();     // Constraint 10
    if (opt.symmetry_breaking) build_symmetry_rows();
    build_objective();
    if (opt.eager_contiguity) build_eager_contiguity();
  }

  void build_groups() {
    std::map<std::pair<int, int>, int> key_to_group;
    group_of.resize(static_cast<std::size_t>(num_comms));
    for (int z = 0; z < num_comms; ++z) {
      const Communication& c = cset[static_cast<std::size_t>(z)];
      const model::MemoryId mem = local_memory_of(app, c);
      const std::pair<int, int> key{mem.value,
                                    c.dir == Direction::kWrite ? 0 : 1};
      auto [it, inserted] =
          key_to_group.try_emplace(key, static_cast<int>(groups.size()));
      if (inserted) groups.push_back({mem, c.dir, {}});
      groups[static_cast<std::size_t>(it->second)].members.push_back(z);
      group_of[static_cast<std::size_t>(z)] = it->second;
    }
  }

  void build_slots() {
    slots.resize(static_cast<std::size_t>(app.platform().num_memories()));
    for (int m = 0; m < app.platform().num_memories(); ++m) {
      slots[static_cast<std::size_t>(m)] =
          MemoryLayout::required_slots(app, model::MemoryId{m});
    }
  }

  void build_layout_vars() {
    pl.resize(slots.size());
    for (int m = 0; m < static_cast<int>(slots.size()); ++m) {
      const auto& sl = slots[static_cast<std::size_t>(m)];
      const int l = static_cast<int>(sl.size());
      if (l == 0) continue;
      const int begin_node = l;
      const int end_node = l + 1;
      const double big_m = static_cast<double>(l) + 2.0;

      // PL: slot positions (relaxed continuous, Constraint 5 integralizes).
      auto& plm = pl[static_cast<std::size_t>(m)];
      for (int a = 0; a < l; ++a) {
        plm.push_back(model.add_continuous(
            1.0, static_cast<double>(l),
            "PL_m" + std::to_string(m) + "_" + std::to_string(a)));
      }
      // Position-sum identity (from the paper's PL definition); tightens
      // the LP relaxation.
      LinExpr plsum;
      for (int a = 0; a < l; ++a) {
        plsum += LinExpr(plm[static_cast<std::size_t>(a)]);
      }
      model.add_constraint(plsum, Sense::kEq,
                           static_cast<double>(l) * (l + 1) / 2.0,
                           "PLsum_m" + std::to_string(m));

      // AD variables: a in slots+begin, b in slots+end, a != b.
      auto ad_name = [&](int a, int b) {
        return "AD_m" + std::to_string(m) + "_" + std::to_string(a) + "_" +
               std::to_string(b);
      };
      for (int a = 0; a <= l; ++a) {          // slots + begin (a == l)
        for (int b = 0; b <= l + 1; ++b) {    // slots + end (b == l+1)
          if (b == l) continue;               // nothing precedes begin
          if (a == l + 1) continue;           // nothing follows end
          if (a == b) continue;
          if (a == l && b == l + 1) continue;  // begin->end only if empty
          ad[{m, a, b}] = model.add_binary(ad_name(a, b));
        }
      }

      // Constraint 4: unit out-degree and in-degree.
      for (int a = 0; a < l; ++a) {
        LinExpr out, in;
        for (int b = 0; b <= l + 1; ++b) {
          if (const auto it = ad.find({m, a, b}); it != ad.end()) {
            out += LinExpr(it->second);
          }
          if (const auto it = ad.find({m, b, a}); it != ad.end()) {
            in += LinExpr(it->second);
          }
        }
        model.add_constraint(out, Sense::kEq, 1.0,
                             "C4out_m" + std::to_string(m) + "_" +
                                 std::to_string(a));
        model.add_constraint(in, Sense::kEq, 1.0,
                             "C4in_m" + std::to_string(m) + "_" +
                                 std::to_string(a));
      }
      LinExpr begin_out, end_in;
      for (int b = 0; b < l; ++b) {
        begin_out += LinExpr(ad.at({m, begin_node, b}));
        end_in += LinExpr(ad.at({m, b, end_node}));
      }
      model.add_constraint(begin_out, Sense::kEq, 1.0,
                           "C4begin_m" + std::to_string(m));
      model.add_constraint(end_in, Sense::kEq, 1.0,
                           "C4end_m" + std::to_string(m));

      // Constraint 5: PL_b = PL_a + 1 whenever AD_{a,b} = 1 (big-M).
      auto pos_of = [&](int node) -> LinExpr {
        if (node == begin_node) return LinExpr(0.0);
        if (node == end_node) return LinExpr(static_cast<double>(l) + 1.0);
        return LinExpr(plm[static_cast<std::size_t>(node)]);
      };
      for (const auto& [key, var] : ad) {
        if (std::get<0>(key) != m) continue;
        const int a = std::get<1>(key);
        const int b = std::get<2>(key);
        const LinExpr pa = pos_of(a);
        const LinExpr pb = pos_of(b);
        // pb >= pa + 1 - (1 - AD) * M
        model.add_constraint(pb - pa - big_m * var, Sense::kGe,
                             1.0 - big_m,
                             "C5lo_m" + std::to_string(m) + "_" +
                                 std::to_string(a) + "_" + std::to_string(b));
        // pb <= pa + 1 + (1 - AD) * M
        model.add_constraint(pb - pa + big_m * var, Sense::kLe,
                             1.0 + big_m,
                             "C5hi_m" + std::to_string(m) + "_" +
                                 std::to_string(a) + "_" + std::to_string(b));
      }
    }
  }

  void build_assignment_vars() {
    cg.resize(static_cast<std::size_t>(num_comms));
    cgi.reserve(static_cast<std::size_t>(num_comms));
    for (int z = 0; z < num_comms; ++z) {
      auto& row = cg[static_cast<std::size_t>(z)];
      LinExpr one, weighted;
      for (int g = 0; g < big_g; ++g) {
        row.push_back(model.add_binary("CG_" + std::to_string(z) + "_" +
                                       std::to_string(g)));
        one += LinExpr(row.back());
        weighted += static_cast<double>(g + 1) * row.back();
      }
      // Constraint 1.
      model.add_constraint(one, Sense::kEq, 1.0, "C1_" + std::to_string(z));
      cgi.push_back(model.add_continuous(1.0, static_cast<double>(big_g),
                                         "CGI_" + std::to_string(z)));
      model.add_constraint(LinExpr(cgi.back()) - weighted, Sense::kEq, 0.0,
                           "CGIdef_" + std::to_string(z));
    }

    // One (memory, direction) group per transfer. GM may stay continuous:
    // the covering rows force it to 1 whenever a member is assigned.
    gm.resize(static_cast<std::size_t>(big_g));
    for (int g = 0; g < big_g; ++g) {
      LinExpr sum;
      for (int q = 0; q < static_cast<int>(groups.size()); ++q) {
        gm[static_cast<std::size_t>(g)].push_back(model.add_continuous(
            0.0, 1.0, "GM_" + std::to_string(g) + "_" + std::to_string(q)));
        sum += LinExpr(gm[static_cast<std::size_t>(g)].back());
      }
      model.add_constraint(sum, Sense::kLe, 1.0,
                           "GMone_" + std::to_string(g));
    }
    for (int z = 0; z < num_comms; ++z) {
      for (int g = 0; g < big_g; ++g) {
        model.add_constraint(
            LinExpr(cg[static_cast<std::size_t>(z)][static_cast<std::size_t>(
                g)]) -
                LinExpr(gm[static_cast<std::size_t>(g)][static_cast<std::size_t>(
                    group_of[static_cast<std::size_t>(z)])]),
            Sense::kLe, 0.0,
            "GMcover_" + std::to_string(z) + "_" + std::to_string(g));
      }
    }

    // Two communications moving the same label in the same direction can
    // never share a transfer (a single copy cannot fan out).
    for (int z1 = 0; z1 < num_comms; ++z1) {
      for (int z2 = z1 + 1; z2 < num_comms; ++z2) {
        const Communication& a = cset[static_cast<std::size_t>(z1)];
        const Communication& b = cset[static_cast<std::size_t>(z2)];
        if (a.label == b.label && a.dir == b.dir) {
          for (int g = 0; g < big_g; ++g) {
            model.add_constraint(
                LinExpr(cg[static_cast<std::size_t>(z1)]
                          [static_cast<std::size_t>(g)]) +
                    LinExpr(cg[static_cast<std::size_t>(z2)]
                              [static_cast<std::size_t>(g)]),
                Sense::kLe, 1.0,
                "NoDup_" + std::to_string(z1) + "_" + std::to_string(z2) +
                    "_" + std::to_string(g));
          }
        }
      }
    }
  }

  void build_anchor_vars() {
    // Anchor communications per task: its reads at s0, or (for write-only
    // tasks) its writes — rule R1 readiness.
    for (int z = 0; z < num_comms; ++z) {
      const Communication& c = cset[static_cast<std::size_t>(z)];
      if (c.dir == Direction::kRead) anchors[c.task.value].push_back(z);
    }
    for (int z = 0; z < num_comms; ++z) {
      const Communication& c = cset[static_cast<std::size_t>(z)];
      if (c.dir == Direction::kWrite &&
          anchors.find(c.task.value) == anchors.end()) {
        anchors[c.task.value];  // create entry, filled below
      }
    }
    for (auto& [task, list] : anchors) {
      if (!list.empty()) continue;
      for (int z = 0; z < num_comms; ++z) {
        const Communication& c = cset[static_cast<std::size_t>(z)];
        if (c.dir == Direction::kWrite && c.task.value == task) {
          list.push_back(z);
        }
      }
    }

    for (const auto& [task, list] : anchors) {
      auto& row = rg[task];
      LinExpr one, weighted;
      for (int g = 0; g < big_g; ++g) {
        row.push_back(model.add_binary("RG_" + std::to_string(task) + "_" +
                                       std::to_string(g)));
        one += LinExpr(row.back());
        weighted += static_cast<double>(g + 1) * row.back();
      }
      // Constraint 2.
      model.add_constraint(one, Sense::kEq, 1.0,
                           "C2_" + std::to_string(task));
      const Var r = model.add_continuous(1.0, static_cast<double>(big_g),
                                         "RGI_" + std::to_string(task));
      rgi.emplace(task, r);
      model.add_constraint(LinExpr(r) - weighted, Sense::kEq, 0.0,
                           "RGIdef_" + std::to_string(task));
      // Constraint 3 (relaxed to >= by default; see header note).
      for (const int z : list) {
        model.add_constraint(
            LinExpr(r) - LinExpr(cgi[static_cast<std::size_t>(z)]),
            Sense::kGe, 0.0,
            "C3_" + std::to_string(task) + "_" + std::to_string(z));
      }
      if (opt.exact_last_read) {
        // Exact max: selector binaries y_z, exactly one active, and
        // RGI <= CGI_z + M (1 - y_z) so RGI equals the selected (and by
        // the >= rows, maximal) anchor index.
        const double big_m = static_cast<double>(big_g) + 1.0;
        LinExpr selector_sum;
        for (const int z : list) {
          const Var y = model.add_binary("C3sel_" + std::to_string(task) +
                                         "_" + std::to_string(z));
          selector_sum += LinExpr(y);
          model.add_constraint(
              LinExpr(r) - LinExpr(cgi[static_cast<std::size_t>(z)]) +
                  big_m * y,
              Sense::kLe, big_m,
              "C3ub_" + std::to_string(task) + "_" + std::to_string(z));
          c3_selectors[task].emplace_back(z, y);
        }
        model.add_constraint(selector_sum, Sense::kEq, 1.0,
                             "C3one_" + std::to_string(task));
      }
    }
  }

  void build_order_rows() {
    // Constraint 7 (Property 1): per task, every write index < read index.
    for (const auto tid : comms.communicating_tasks()) {
      std::vector<int> writes, reads;
      for (int z = 0; z < num_comms; ++z) {
        const Communication& c = cset[static_cast<std::size_t>(z)];
        if (!(c.task == tid)) continue;
        (c.dir == Direction::kWrite ? writes : reads).push_back(z);
      }
      for (const int w : writes) {
        for (const int r : reads) {
          model.add_constraint(
              LinExpr(cgi[static_cast<std::size_t>(r)]) -
                  LinExpr(cgi[static_cast<std::size_t>(w)]),
              Sense::kGe, 1.0,
              "C7_" + std::to_string(w) + "_" + std::to_string(r));
        }
      }
    }
    // Constraint 8 (Property 2): per label, write index < each read index.
    for (int w = 0; w < num_comms; ++w) {
      if (cset[static_cast<std::size_t>(w)].dir != Direction::kWrite) continue;
      for (int r = 0; r < num_comms; ++r) {
        if (cset[static_cast<std::size_t>(r)].dir != Direction::kRead) continue;
        if (!(cset[static_cast<std::size_t>(w)].label ==
              cset[static_cast<std::size_t>(r)].label)) {
          continue;
        }
        model.add_constraint(
            LinExpr(cgi[static_cast<std::size_t>(r)]) -
                LinExpr(cgi[static_cast<std::size_t>(w)]),
            Sense::kGe, 1.0,
            "C8_" + std::to_string(w) + "_" + std::to_string(r));
      }
    }
  }

  double deadline_us(int task) const {
    const model::Task& t = app.task(model::TaskId{task});
    const Time g = t.acquisition_deadline.value_or(t.period);
    return static_cast<double>(std::min(g, t.period)) * kUsPerNs;
  }

  void build_latency_rows() {
    double total_copy_us = 0;
    for (const double c : copy_us) total_copy_us += c;
    const double m9 =
        static_cast<double>(big_g) * lambda_o_us + total_copy_us + 1.0;

    for (const auto& [task, list] : anchors) {
      (void)list;
      // The variable's upper bound doubles as the gamma_i deadline row.
      const Var l = model.add_continuous(0.0, deadline_us(task),
                                         "lambda_" + std::to_string(task));
      lambda.emplace(task, l);
      // Constraint 9, one row per candidate last-transfer index.
      for (int gbar = 0; gbar < big_g; ++gbar) {
        LinExpr rhs = lambda_o_us * LinExpr(rgi.at(task));
        for (int g = 0; g <= gbar; ++g) {
          for (int z = 0; z < num_comms; ++z) {
            rhs += copy_us[static_cast<std::size_t>(z)] *
                   cg[static_cast<std::size_t>(z)][static_cast<std::size_t>(g)];
          }
        }
        rhs -= m9 * (1.0 - LinExpr(rg.at(task)[static_cast<std::size_t>(gbar)]));
        // lambda >= rhs  <=>  lambda - rhs >= 0.
        model.add_constraint(LinExpr(l) - rhs, Sense::kGe, 0.0,
                             "C9_" + std::to_string(task) + "_" +
                                 std::to_string(gbar));
      }
    }
  }

  /// Fingerprint of a communication subset (for pattern deduplication).
  static std::size_t fingerprint(const std::vector<int>& zs) {
    std::size_t h = 1469598103934665603ULL;
    for (const int z : zs) {
      h ^= static_cast<std::size_t>(z) + 0x9e3779b97f4a7c15ULL;
      h *= 1099511628211ULL;
    }
    return h;
  }

  std::vector<int> comm_indices_at(Time t) const {
    std::vector<int> out;
    for (const Communication& c : comms.comms_at(t)) {
      out.push_back(comms.index_at_s0(c));
    }
    return out;
  }

  void build_slotfit_rows() {
    // Constraint 10: the communications of each instant must complete
    // within the gap to the next instant. One GMAX variable per distinct
    // pattern; per pattern only the smallest gap binds.
    const std::vector<Time>& inst = comms.required_instants();
    if (inst.size() < 1) return;
    const Time h = app.hyperperiod();
    std::map<std::size_t, std::pair<std::vector<int>, Time>> patterns;
    for (std::size_t i = 0; i < inst.size(); ++i) {
      const Time t1 = inst[i];
      const Time t2 = (i + 1 < inst.size()) ? inst[i + 1] : h + inst[0];
      std::vector<int> zs = comm_indices_at(t1);
      const std::size_t fp = fingerprint(zs);
      auto [it, inserted] = patterns.try_emplace(fp, std::move(zs), t2 - t1);
      if (!inserted) it->second.second = std::min(it->second.second, t2 - t1);
    }
    int pidx = 0;
    for (const auto& [fp, entry] : patterns) {
      (void)fp;
      const auto& [zs, gap] = entry;
      const Var gmax =
          model.add_continuous(1.0, static_cast<double>(big_g),
                               "GMAX_" + std::to_string(pidx));
      gmax_vars.emplace(fp, std::make_pair(gmax, zs));
      double bytes_us = 0;
      for (const int z : zs) {
        bytes_us += copy_us[static_cast<std::size_t>(z)];
        model.add_constraint(
            LinExpr(gmax) - LinExpr(cgi[static_cast<std::size_t>(z)]),
            Sense::kGe, 0.0,
            "C10max_" + std::to_string(pidx) + "_" + std::to_string(z));
      }
      model.add_constraint(lambda_o_us * LinExpr(gmax), Sense::kLe,
                           static_cast<double>(gap) * kUsPerNs - bytes_us,
                           "C10_" + std::to_string(pidx));
      ++pidx;
    }
  }

  // Twin orbits: labels with identical size, the same writer task and the
  // same reader set. Relabelling one twin as the other maps any feasible
  // configuration to a feasible configuration of identical cost (equal
  // copy times, interchangeable slots, same anchors), so the solution
  // space carries an orbit symmetry the tree would otherwise explore
  // once per permutation. Ordering the write-communication transfer
  // indices along each orbit keeps exactly one representative feasible.
  void build_symmetry_rows() {
    std::map<int, int> write_z;                // label -> write comm index
    std::map<int, std::vector<int>> readers;   // label -> reader tasks
    for (int z = 0; z < num_comms; ++z) {
      const Communication& c = cset[static_cast<std::size_t>(z)];
      if (c.dir == Direction::kWrite) {
        write_z[c.label.value] = z;
      } else {
        readers[c.label.value].push_back(c.task.value);
      }
    }
    std::map<std::tuple<long long, int, std::vector<int>>, std::vector<int>>
        orbits;
    for (const auto& [label, wz] : write_z) {
      std::vector<int> rd = readers[label];
      std::sort(rd.begin(), rd.end());
      const long long size =
          app.label(model::LabelId{label}).size_bytes;
      orbits[{size, cset[static_cast<std::size_t>(wz)].task.value,
              std::move(rd)}]
          .push_back(label);
    }
    for (auto& [key, labels] : orbits) {
      (void)key;
      if (labels.size() < 2) continue;
      // write_z iterates in ascending label order, so `labels` is sorted.
      for (std::size_t i = 0; i + 1 < labels.size(); ++i) {
        const int wa = write_z.at(labels[i]);
        const int wb = write_z.at(labels[i + 1]);
        model.add_constraint(
            LinExpr(cgi[static_cast<std::size_t>(wa)]) -
                LinExpr(cgi[static_cast<std::size_t>(wb)]),
            Sense::kLe, 0.0,
            "Sym_l" + std::to_string(labels[i]) + "_l" +
                std::to_string(labels[i + 1]));
      }
      twin_orbits.push_back(std::move(labels));
    }
  }

  /// Applies each orbit's relabelling permutation so the candidate's write
  /// transfer indices are sorted along the orbit — the canonical
  /// representative the symmetry rows keep feasible. Cost-preserving by
  /// the twin property; the layout and schedule are rebuilt to match.
  ScheduleResult canonicalize_twins(const ScheduleResult& cand) const {
    std::map<int, int> write_g;  // label -> transfer index of its write
    for (int g = 0; g < static_cast<int>(cand.s0_transfers.size()); ++g) {
      for (const Communication& c :
           cand.s0_transfers[static_cast<std::size_t>(g)].comms) {
        if (c.dir == Direction::kWrite) write_g[c.label.value] = g;
      }
    }
    std::map<int, int> perm;  // old label -> canonical label
    for (const std::vector<int>& orbit : twin_orbits) {
      std::vector<int> by_write = orbit;
      std::stable_sort(by_write.begin(), by_write.end(),
                       [&](int a, int b) {
                         const auto ga = write_g.find(a);
                         const auto gb = write_g.find(b);
                         const int ia = ga == write_g.end()
                                            ? std::numeric_limits<int>::max()
                                            : ga->second;
                         const int ib = gb == write_g.end()
                                            ? std::numeric_limits<int>::max()
                                            : gb->second;
                         return ia != ib ? ia < ib : a < b;
                       });
      for (std::size_t i = 0; i < orbit.size(); ++i) {
        if (by_write[i] != orbit[i]) perm[by_write[i]] = orbit[i];
      }
    }
    if (perm.empty()) return cand;
    std::vector<std::vector<Communication>> relabelled;
    relabelled.reserve(cand.s0_transfers.size());
    for (const DmaTransfer& t : cand.s0_transfers) {
      std::vector<Communication> group = t.comms;
      for (Communication& c : group) {
        if (const auto it = perm.find(c.label.value); it != perm.end()) {
          c.label = model::LabelId{it->second};
        }
      }
      relabelled.push_back(std::move(group));
    }
    return build_from_groups(comms, relabelled);
  }

  std::vector<std::vector<int>> twin_orbits;  // label ids, ascending

  void build_objective() {
    switch (opt.objective) {
      case MilpObjective::kNone:
        break;
      case MilpObjective::kMinTransfers: {
        const Var zv = model.add_continuous(1.0, static_cast<double>(big_g),
                                            "Zdmat");
        objective_var = zv;
        for (const auto& [task, r] : rgi) {
          model.add_constraint(LinExpr(zv) - LinExpr(r), Sense::kGe, 0.0,
                               "Obj4_" + std::to_string(task));
        }
        model.set_objective(LinExpr(zv), milp::ObjSense::kMinimize);
        break;
      }
      case MilpObjective::kMinLatencyRatio: {
        const Var zv = model.add_continuous(0.0, 1.0, "Zdel");
        objective_var = zv;
        for (const auto& [task, l] : lambda) {
          const double period_us =
              static_cast<double>(app.task(model::TaskId{task}).period) *
              kUsPerNs;
          model.add_constraint(period_us * LinExpr(zv) - LinExpr(l),
                               Sense::kGe, 0.0,
                               "Obj5_" + std::to_string(task));
        }
        model.set_objective(LinExpr(zv), milp::ObjSense::kMinimize);
        break;
      }
    }
  }

  // ==========================================================================
  // Contiguity (Constraint 6): shared pieces
  // ==========================================================================

  /// The LG witness variable for "comm zc's label sits immediately after
  /// comm za's label in both memories, and zc is in transfer g". Created on
  /// first use together with its three covering rows.
  Var lg_var(int grp, int za, int zc, int g) {
    const auto key = std::make_tuple(grp, za, zc, g);
    if (const auto it = lg.find(key); it != lg.end()) return it->second;
    const GroupInfo& gi = groups[static_cast<std::size_t>(grp)];
    const Communication& a = cset[static_cast<std::size_t>(za)];
    const Communication& c = cset[static_cast<std::size_t>(zc)];
    const Var v = model.add_continuous(
        0.0, 1.0,
        "LG_" + std::to_string(grp) + "_" + std::to_string(za) + "_" +
            std::to_string(zc) + "_" + std::to_string(g));
    lg.emplace(key, v);
    // Covering rows: v <= AD_G(a->c), v <= AD_x(slot a -> slot c),
    // v <= CG[zc][g]. Only upper bounds are needed: v appears positively on
    // the witness side of Constraint 6, so the LP may not fake a witness.
    const int mg = app.platform().global_memory().value;
    model.add_constraint(
        LinExpr(v) - LinExpr(ad.at({mg, global_node(a), global_node(c)})),
        Sense::kLe, 0.0, "LGg");
    model.add_constraint(
        LinExpr(v) -
            LinExpr(ad.at({gi.mem.value, local_node(gi, a), local_node(gi, c)})),
        Sense::kLe, 0.0, "LGx");
    model.add_constraint(
        LinExpr(v) - LinExpr(cg[static_cast<std::size_t>(zc)]
                               [static_cast<std::size_t>(g)]),
        Sense::kLe, 0.0, "LGc");
    return v;
  }

  int global_node(const Communication& c) const {
    const auto& sl = slots[static_cast<std::size_t>(
        app.platform().global_memory().value)];
    const Slot target = global_slot_of(c);
    for (int i = 0; i < static_cast<int>(sl.size()); ++i) {
      if (sl[static_cast<std::size_t>(i)] == target) return i;
    }
    throw support::PreconditionError("global slot not found");
  }

  int local_node(const GroupInfo& gi, const Communication& c) const {
    const auto& sl = slots[static_cast<std::size_t>(gi.mem.value)];
    const Slot target = local_slot_of(c);
    for (int i = 0; i < static_cast<int>(sl.size()); ++i) {
      if (sl[static_cast<std::size_t>(i)] == target) return i;
    }
    throw support::PreconditionError("local slot not found");
  }

  /// Builds the Constraint-6 row for pair (zi, zj) over witness set
  /// `present` (the group's communications required at the instant).
  milp::LazyRow make_pair_row(int grp, int g, int zi, int zj,
                              const std::vector<int>& present) {
    LinExpr expr =
        LinExpr(cg[static_cast<std::size_t>(zi)][static_cast<std::size_t>(g)]) +
        LinExpr(cg[static_cast<std::size_t>(zj)][static_cast<std::size_t>(g)]);
    // A witness must involve a *different* label: two communications of the
    // same label have identical global slots, for which adjacency (and thus
    // an LG variable) is undefined.
    auto distinct_label = [&](int z1, int z2) {
      return !(cset[static_cast<std::size_t>(z1)].label ==
               cset[static_cast<std::size_t>(z2)].label);
    };
    for (const int zc : present) {
      if (zc != zi && distinct_label(zi, zc)) {
        expr -= LinExpr(lg_var(grp, zi, zc, g));
      }
      if (zc != zj && distinct_label(zj, zc)) {
        expr -= LinExpr(lg_var(grp, zj, zc, g));
      }
    }
    return {std::move(expr), Sense::kLe, 1.0,
            "C6_" + std::to_string(g) + "_" + std::to_string(zi) + "_" +
                std::to_string(zj)};
  }

  void build_eager_contiguity() {
    // All pair rows for every distinct per-instant restriction of every
    // group. Exponential in nothing, but cubic in group size — intended for
    // small instances and tests.
    std::set<std::tuple<int, std::size_t>> seen;  // (group, fingerprint)
    for (const Time t : comms.required_instants()) {
      const std::vector<int> zs = comm_indices_at(t);
      for (int grp = 0; grp < static_cast<int>(groups.size()); ++grp) {
        std::vector<int> present;
        for (const int z : zs) {
          if (group_of[static_cast<std::size_t>(z)] == grp) {
            present.push_back(z);
          }
        }
        if (present.size() < 2) continue;
        if (!seen.insert({grp, fingerprint(present)}).second) continue;
        for (std::size_t i = 0; i < present.size(); ++i) {
          for (std::size_t j = i + 1; j < present.size(); ++j) {
            for (int g = 0; g < big_g; ++g) {
              milp::LazyRow r =
                  make_pair_row(grp, g, present[i], present[j], present);
              model.add_constraint(std::move(r.expr), r.sense, r.rhs, r.name);
            }
          }
        }
      }
    }
  }

  // ==========================================================================
  // Decoding and separation
  // ==========================================================================

  /// Reads a variable's value out of a (possibly shorter) assignment.
  static double value_of(const std::vector<double>& x, Var v) {
    LETDMA_ENSURE(v.index >= 0, "unset variable");
    if (v.index >= static_cast<int>(x.size())) return 0.0;
    return x[static_cast<std::size_t>(v.index)];
  }

  MemoryLayout decode_layout(const std::vector<double>& x) const {
    MemoryLayout layout(app);
    for (int m = 0; m < static_cast<int>(slots.size()); ++m) {
      const auto& sl = slots[static_cast<std::size_t>(m)];
      if (sl.empty()) continue;
      std::vector<int> order(sl.size());
      for (std::size_t i = 0; i < sl.size(); ++i) {
        order[i] = static_cast<int>(i);
      }
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        return value_of(x, pl[static_cast<std::size_t>(m)]
                              [static_cast<std::size_t>(a)]) <
               value_of(x, pl[static_cast<std::size_t>(m)]
                              [static_cast<std::size_t>(b)]);
      });
      std::vector<Slot> ordered;
      ordered.reserve(sl.size());
      for (const int i : order) {
        ordered.push_back(sl[static_cast<std::size_t>(i)]);
      }
      layout.set_order(model::MemoryId{m}, std::move(ordered));
    }
    return layout;
  }

  std::vector<int> decode_assignment(const std::vector<double>& x) const {
    std::vector<int> g_of(static_cast<std::size_t>(num_comms), -1);
    for (int z = 0; z < num_comms; ++z) {
      for (int g = 0; g < big_g; ++g) {
        if (value_of(x, cg[static_cast<std::size_t>(z)]
                           [static_cast<std::size_t>(g)]) > 0.5) {
          g_of[static_cast<std::size_t>(z)] = g;
          break;
        }
      }
      LETDMA_ENSURE(g_of[static_cast<std::size_t>(z)] >= 0,
                    "communication without a transfer in the solution");
    }
    return g_of;
  }

  /// Lazy separation: semantic contiguity check of the candidate at every
  /// instant; returns violated Constraint-6 pair rows.
  std::vector<milp::LazyRow> separate(const std::vector<double>& x) {
    const MemoryLayout layout = decode_layout(x);
    const std::vector<int> g_of = decode_assignment(x);
    const int mg = app.platform().global_memory().value;

    std::vector<milp::LazyRow> rows;
    for (const Time t : comms.required_instants()) {
      const std::vector<int> zs = comm_indices_at(t);
      // Partition by (transfer, group).
      std::map<std::pair<int, int>, std::vector<int>> cells;
      for (const int z : zs) {
        cells[{g_of[static_cast<std::size_t>(z)],
               group_of[static_cast<std::size_t>(z)]}]
            .push_back(z);
      }
      for (const auto& [key, present] : cells) {
        const auto [g, grp] = key;
        if (present.size() < 2) continue;
        const std::size_t fp = fingerprint(present);
        const GroupInfo& gi = groups[static_cast<std::size_t>(grp)];
        // A pair is fine when some present communication's label sits
        // immediately after one of the pair's labels in BOTH memories.
        auto joint_after = [&](int za, int zc) {
          const Communication& a = cset[static_cast<std::size_t>(za)];
          const Communication& c = cset[static_cast<std::size_t>(zc)];
          return layout.adjacent(model::MemoryId{mg}, global_slot_of(a),
                                 global_slot_of(c)) &&
                 layout.adjacent(gi.mem, local_slot_of(a), local_slot_of(c));
        };
        for (std::size_t i = 0; i < present.size(); ++i) {
          for (std::size_t j = i + 1; j < present.size(); ++j) {
            const int zi = present[i];
            const int zj = present[j];
            bool witnessed = false;
            for (const int zc : present) {
              if ((zc != zi && joint_after(zi, zc)) ||
                  (zc != zj && joint_after(zj, zc))) {
                witnessed = true;
                break;
              }
            }
            if (witnessed) continue;
            if (!added_pair_rows.insert({g, zi, zj, fp}).second) continue;
            rows.push_back(make_pair_row(grp, g, zi, zj, present));
          }
        }
      }
    }
    return rows;
  }

  // ==========================================================================
  // Warm start and extraction
  // ==========================================================================

  std::optional<std::vector<double>> warm_start_vector(
      const ScheduleResult& greedy) {
    if (static_cast<int>(greedy.s0_transfers.size()) > big_g) return {};
    std::vector<double> x(static_cast<std::size_t>(model.num_vars()), 0.0);
    auto set = [&](Var v, double val) {
      LETDMA_ENSURE(v.index >= 0 && v.index < static_cast<int>(x.size()),
                    "warm start variable out of range");
      x[static_cast<std::size_t>(v.index)] = val;
    };

    // Layout: PL and AD.
    for (int m = 0; m < static_cast<int>(slots.size()); ++m) {
      const auto& sl = slots[static_cast<std::size_t>(m)];
      if (sl.empty()) continue;
      const int l = static_cast<int>(sl.size());
      const auto& order = greedy.layout.order(model::MemoryId{m});
      std::vector<int> node_at(static_cast<std::size_t>(l), -1);
      for (int pos = 0; pos < l; ++pos) {
        // Node index of the slot at this position.
        const Slot& s = order[static_cast<std::size_t>(pos)];
        int node = -1;
        for (int i = 0; i < l; ++i) {
          if (sl[static_cast<std::size_t>(i)] == s) {
            node = i;
            break;
          }
        }
        LETDMA_ENSURE(node >= 0, "greedy layout slot missing from model");
        node_at[static_cast<std::size_t>(pos)] = node;
        set(pl[static_cast<std::size_t>(m)][static_cast<std::size_t>(node)],
            static_cast<double>(pos + 1));
      }
      set(ad.at({m, l, node_at[0]}), 1.0);  // begin -> first
      for (int pos = 0; pos + 1 < l; ++pos) {
        set(ad.at({m, node_at[static_cast<std::size_t>(pos)],
                   node_at[static_cast<std::size_t>(pos + 1)]}),
            1.0);
      }
      set(ad.at({m, node_at[static_cast<std::size_t>(l - 1)], l + 1}), 1.0);
    }

    // Assignment: CG/CGI/GM, then RG/RGI/lambda.
    std::vector<int> g_of(static_cast<std::size_t>(num_comms), -1);
    for (int g = 0; g < static_cast<int>(greedy.s0_transfers.size()); ++g) {
      for (const Communication& c : greedy.s0_transfers
               [static_cast<std::size_t>(g)].comms) {
        const int z = comms.index_at_s0(c);
        g_of[static_cast<std::size_t>(z)] = g;
        set(cg[static_cast<std::size_t>(z)][static_cast<std::size_t>(g)], 1.0);
        set(cgi[static_cast<std::size_t>(z)], static_cast<double>(g + 1));
        set(gm[static_cast<std::size_t>(g)][static_cast<std::size_t>(
                group_of[static_cast<std::size_t>(z)])],
            1.0);
      }
    }
    for (int z = 0; z < num_comms; ++z) {
      if (g_of[static_cast<std::size_t>(z)] < 0) return {};  // uncovered
    }

    // Cumulative copy cost by transfer for Constraint 9 arithmetic.
    std::vector<double> cum(static_cast<std::size_t>(big_g) + 1, 0.0);
    for (int z = 0; z < num_comms; ++z) {
      cum[static_cast<std::size_t>(g_of[static_cast<std::size_t>(z)]) + 1] +=
          copy_us[static_cast<std::size_t>(z)];
    }
    for (std::size_t i = 1; i < cum.size(); ++i) cum[i] += cum[i - 1];

    double obj_dmat = 1.0;
    double obj_del = 0.0;
    for (const auto& [task, list] : anchors) {
      int last = 0;
      for (const int z : list) {
        last = std::max(last, g_of[static_cast<std::size_t>(z)]);
      }
      set(rg.at(task)[static_cast<std::size_t>(last)], 1.0);
      set(rgi.at(task), static_cast<double>(last + 1));
      if (const auto sel = c3_selectors.find(task);
          sel != c3_selectors.end()) {
        // Activate the selector of one anchor achieving the maximum.
        for (const auto& [z, y] : sel->second) {
          if (g_of[static_cast<std::size_t>(z)] == last) {
            set(y, 1.0);
            break;
          }
        }
      }
      const double lam = static_cast<double>(last + 1) * lambda_o_us +
                         cum[static_cast<std::size_t>(last) + 1];
      if (lam > deadline_us(task) + 1e-9) return {};  // misses gamma_i
      set(lambda.at(task), lam);
      obj_dmat = std::max(obj_dmat, static_cast<double>(last + 1));
      obj_del = std::max(
          obj_del, lam / (static_cast<double>(
                              app.task(model::TaskId{task}).period) *
                          kUsPerNs));
    }

    // GMAX per pattern and the objective variable: locate them by scanning
    // model rows would be brittle; instead recompute from names is avoided
    // by storing the vars. (GMAX vars are stored in gmax_vars below.)
    for (const auto& [fp, entry] : gmax_vars) {
      (void)fp;
      const auto& [var, zs] = entry;
      double worst = 1.0;
      for (const int z : zs) {
        worst = std::max(worst, static_cast<double>(
                                    g_of[static_cast<std::size_t>(z)] + 1));
      }
      set(var, worst);
    }
    if (objective_var) {
      set(*objective_var, opt.objective == MilpObjective::kMinTransfers
                              ? obj_dmat
                              : obj_del);
    }

    // Eagerly created LG witnesses take their true AND value.
    const int mgid = app.platform().global_memory().value;
    for (const auto& [key, var] : lg) {
      const auto [grp, za, zc, g] = key;
      const GroupInfo& gi = groups[static_cast<std::size_t>(grp)];
      const Communication& a = cset[static_cast<std::size_t>(za)];
      const Communication& c = cset[static_cast<std::size_t>(zc)];
      const bool after =
          greedy.layout.adjacent(model::MemoryId{mgid}, global_slot_of(a),
                                 global_slot_of(c)) &&
          greedy.layout.adjacent(gi.mem, local_slot_of(a), local_slot_of(c));
      if (after && g_of[static_cast<std::size_t>(zc)] == g) set(var, 1.0);
    }
    return x;
  }

  ScheduleResult extract(const std::vector<double>& x) const {
    MemoryLayout layout = decode_layout(x);
    const std::vector<int> g_of = decode_assignment(x);
    std::vector<std::vector<Communication>> buckets(
        static_cast<std::size_t>(big_g));
    for (int z = 0; z < num_comms; ++z) {
      buckets[static_cast<std::size_t>(g_of[static_cast<std::size_t>(z)])]
          .push_back(cset[static_cast<std::size_t>(z)]);
    }
    std::vector<DmaTransfer> s0;
    for (auto& bucket : buckets) {
      if (bucket.empty()) continue;
      s0.push_back(make_transfer(layout, std::move(bucket)));
    }
    TransferSchedule sched = derive_schedule(comms, layout, s0);
    return {std::move(layout), std::move(s0), std::move(sched)};
  }

  // Populated by build_slotfit_rows / build_objective for warm starts.
  std::map<std::size_t, std::pair<Var, std::vector<int>>> gmax_vars;
  std::optional<Var> objective_var;
  // Exact-max selector binaries (exact_last_read mode): task -> (z, y_z).
  std::map<int, std::vector<std::pair<int, Var>>> c3_selectors;
};

MilpScheduler::MilpScheduler(const LetComms& comms,
                             MilpSchedulerOptions options)
    : impl_(std::make_shared<Impl>(comms, options)) {
  obs::ScopedSpan span("let.milp.build", "let");
  impl_->build();
  span.arg("comms", static_cast<std::int64_t>(impl_->num_comms));
  span.arg("vars", static_cast<std::int64_t>(impl_->model.num_vars()));
  span.arg("rows", static_cast<std::int64_t>(impl_->model.num_constraints()));
}

int MilpScheduler::model_vars() const { return impl_->model.num_vars(); }
int MilpScheduler::model_rows() const {
  return impl_->model.num_constraints();
}
const milp::Model& MilpScheduler::model() const { return impl_->model; }

MilpScheduleResult MilpScheduler::solve() {
  Impl& im = *impl_;
  auto impl = impl_;
  milp::MilpOptions solver_opt = im.opt.solver;
  if (im.opt.on_incumbent) {
    solver_opt.on_incumbent = [impl, cb = im.opt.on_incumbent](
                                  const std::vector<double>& x,
                                  double objective) {
      cb(impl->extract(x), objective);
    };
  }
  milp::MilpSolver solver(im.model, solver_opt);
  if (!im.opt.eager_contiguity) {
    solver.set_lazy_callback(
        [impl](const std::vector<double>& x) { return impl->separate(x); });
  }

  if (im.opt.greedy_warm_start || im.opt.warm_start_hint != nullptr) {
    obs::ScopedSpan ws_span("let.milp.warm_start", "let");
    // External hint first, then the preferred greedy variant (matched to
    // the objective and polished by a short local search), then the raw
    // strategies as fallbacks in case the preferred one misses a deadline.
    std::vector<ScheduleResult> candidates;
    if (im.opt.warm_start_hint != nullptr) {
      candidates.push_back(*im.opt.warm_start_hint);
    }
    if (im.opt.greedy_warm_start) {
      const std::size_t greedy_at = candidates.size();
      candidates.push_back(im.opt.objective == MilpObjective::kMinTransfers
                               ? GreedyScheduler::best_transfer_count(im.comms)
                               : GreedyScheduler::best_latency_ratio(im.comms));
      try {
        LocalSearchOptions ls;
        ls.goal = im.opt.objective == MilpObjective::kMinTransfers
                      ? LocalSearchGoal::kMinTransfers
                      : LocalSearchGoal::kMinMaxLatencyRatio;
        ls.max_evaluations = 800;
        LocalSearchResult polished = improve_schedule(
            im.comms, candidates[greedy_at], ls);
        candidates.insert(
            candidates.begin() + static_cast<std::ptrdiff_t>(greedy_at),
            std::move(polished.schedule));
      } catch (const support::Error&) {
        // The raw candidate violates a deadline; fall through to the others.
      }
      for (const GreedyStrategy s :
           {GreedyStrategy::kUrgencyFirst, GreedyStrategy::kWriteBatched,
            GreedyStrategy::kReadBatched}) {
        candidates.push_back(GreedyScheduler(im.comms, {s}).build());
      }
    }
    if (im.opt.symmetry_breaking && !im.twin_orbits.empty()) {
      // The chain rows keep only the canonical orbit representative
      // feasible; map every candidate onto it (cost-preserving) so no
      // warm start is rejected for being a symmetric image.
      for (ScheduleResult& cand : candidates) {
        try {
          cand = im.canonicalize_twins(cand);
        } catch (const support::Error&) {
          // Leave the candidate as-is; warm_start_vector screens it.
        }
      }
    }
    bool seeded = false;
    for (const ScheduleResult& greedy : candidates) {
      if (const auto x = im.warm_start_vector(greedy)) {
        if (solver.set_warm_start(*x)) {
          seeded = true;
          break;
        }
      }
    }
    ws_span.arg("candidates", static_cast<std::int64_t>(candidates.size()));
    ws_span.arg("seeded", seeded);
  }

  const milp::MilpResult r = [&] {
    obs::ScopedSpan solve_span("let.milp.solve", "let");
    return solver.solve();
  }();
  MilpScheduleResult out;
  out.status = r.status;
  out.stats = r.stats;
  out.objective = r.objective;
  if (r.has_solution()) {
    obs::ScopedSpan extract_span("let.milp.extract", "let");
    out.schedule.emplace(im.extract(r.x));
    out.dma_transfers_at_s0 =
        static_cast<int>(out.schedule->s0_transfers.size());
    extract_span.arg("transfers",
                     static_cast<std::int64_t>(out.dma_transfers_at_s0));
  }
  return out;
}

}  // namespace letdma::let
