#include "rm/local_opt.hh"

#include <algorithm>
#include <array>
#include <span>

#include "common/check.hh"

namespace qosrm::rm {

std::vector<double> LocalOptResult::energy_curve() const {
  std::vector<double> curve;
  curve.reserve(choices.size());
  for (const WayChoice& c : choices) {
    curve.push_back(c.feasible ? c.energy_j : kInfeasibleEnergy);
  }
  return curve;
}

LocalOptResult LocalOptimizer::optimize(const CounterSnapshot& snap,
                                        std::uint64_t* ops) const {
  LocalOptResult result;
  optimize_into(snap, result, ops);
  return result;
}

void LocalOptimizer::optimize_into(const CounterSnapshot& snap,
                                   LocalOptResult& out,
                                   std::uint64_t* ops) const {
  QOSRM_CHECK_MSG(!snap.key_only, "local optimization of an unfilled snapshot");
  const arch::SystemConfig& sys = perf_->system();
  out.min_ways = sys.llc.min_ways;
  out.min_shares = sys.bw.min_shares;
  out.num_shares = sys.bw.num_allocations();
  const int n_w = sys.llc.num_allocations();
  out.choices.assign(static_cast<std::size_t>(n_w) *
                         static_cast<std::size_t>(out.num_shares),
                     WayChoice{});

  std::uint64_t local_ops = 0;

  // Predicted baseline time, the QoS reference (Eq. 3), computed once.
  const workload::Setting base = workload::baseline_setting(sys);
  const double t_base = perf_->predict_time(snap, base) * sys.qos_alpha;
  ++local_ops;

  // Candidate core sizes in a fixed-capacity buffer (heap-free).
  std::array<arch::CoreSize, arch::kNumCoreSizes> sizes{};
  std::size_t n_sizes = 0;
  if (opt_.allow_resize) {
    sizes = {arch::CoreSize::S, arch::CoreSize::M, arch::CoreSize::L};
    n_sizes = arch::kNumCoreSizes;
  } else {
    sizes[0] = arch::kBaselineCoreSize;
    n_sizes = 1;
  }

  // Hoist the target-invariant terms of Eq. 1 out of the (w, c, f) sweep.
  // For the analytical models the predicted time decomposes as
  //
  //   T(c, f, w) = [T_width * D_i/D(c) + T_inv] * (f_i/f) + T_mem(c, w)
  //
  // with the bracket per size, the frequency ratio per VF point and the
  // memory term per (c, w); each sweep step is then one multiply-add. Every
  // hoisted value is produced by the exact operation sequence predict_time
  // uses, so the sweep is bit-identical to calling the model per setting
  // (the equivalence is pinned by LocalOpt.HoistedSweepMatchesModelCalls).
  // The perfect model resists hoisting - its oracle lookup depends on f -
  // and keeps calling predict_time directly.
  const bool hoisted = perf_->kind() != PerfModelKind::Perfect;
  std::array<double, arch::kNumCoreSizes> core_num{};
  std::array<double, arch::VfTable::kNumPoints> freq_ratio{};
  if (hoisted) {
    const double d_cur =
        static_cast<double>(arch::core_params(snap.current.c).issue_width);
    const double f_cur = arch::VfTable::frequency_hz(snap.current.f_idx);
    const double t_invariant = snap.t_ilp_s + snap.t_branch_s + snap.t_cache_s;
    for (std::size_t si = 0; si < n_sizes; ++si) {
      const double d_tgt =
          static_cast<double>(arch::core_params(sizes[si]).issue_width);
      core_num[si] = snap.t_width_s * d_cur / d_tgt + t_invariant;
    }
    for (int f_idx = 0; f_idx < arch::VfTable::kNumPoints; ++f_idx) {
      freq_ratio[static_cast<std::size_t>(f_idx)] =
          f_cur / arch::VfTable::frequency_hz(f_idx);
    }
  }

  // The sweep runs size-outer / share / allocation-inner so the per-(c, w)
  // memory term walks each ATD curve contiguously and the perfect model
  // reads whole oracle rows of the evaluation table. out.choices accumulates
  // the per-(w, b) best directly; for a fixed cell the candidates still
  // arrive in ascending size order with the same strict-less tie-breaking,
  // so the outcome (and the op count) is bit-identical to the former
  // allocation-outer sweep in the degenerate single-share config, where the
  // share loop collapses to one iteration.
  const int w_lo = sys.llc.min_ways;
  const int w_hi = sys.llc.max_ways;
  const int b_lo = sys.bw.min_shares;
  const int b_hi = sys.bw.max_shares;
  const auto consider = [&](int w, int b, const workload::Setting& s,
                            double t_star) {
    const double e = energy_->estimate(snap, s, t_star);
    ++local_ops;
    WayChoice& best =
        out.choices[static_cast<std::size_t>(b - b_lo) *
                        static_cast<std::size_t>(n_w) +
                    static_cast<std::size_t>(w - w_lo)];
    if (e < best.energy_j) {
      best.feasible = true;
      best.setting = s;
      best.predicted_time_s = t_star;
      best.energy_j = e;
    }
  };

  for (std::size_t si = 0; si < n_sizes; ++si) {
    const arch::CoreSize c = sizes[si];
    if (hoisted) {
      for (int b = b_lo; b <= b_hi; ++b) {
        for (int w = w_lo; w <= w_hi; ++w) {
          // T_mem is frequency-invariant in the analytical models (Eq. 2);
          // the granted share scales it (CBP term) but never couples to f.
          const double mem_cw = perf_->predict_mem_time(snap, {c, 0, w, b});
          // Find f*(c, w, b): the lowest operating point satisfying QoS.
          // Predicted time is monotone in f, so scan from the bottom.
          int f_star = -1;
          double t_star = 0.0;
          if (opt_.allow_dvfs) {
            for (int f_idx = 0; f_idx < arch::VfTable::kNumPoints; ++f_idx) {
              const double t =
                  core_num[si] * freq_ratio[static_cast<std::size_t>(f_idx)] +
                  mem_cw;
              ++local_ops;
              if (t <= t_base) {
                f_star = f_idx;
                t_star = t;
                break;
              }
            }
          } else {
            constexpr int kBase = arch::VfTable::kBaselineIndex;
            const double t =
                core_num[si] * freq_ratio[static_cast<std::size_t>(kBase)] +
                mem_cw;
            ++local_ops;
            if (t <= t_base) {
              f_star = kBase;
              t_star = t;
            }
          }
          if (f_star < 0) continue;  // no feasible frequency at this cell
          consider(w, b, {c, f_star, w, b}, t_star);
        }
      }
    } else {
      // Perfect model: a prediction is an oracle lookup, so resolve
      // f*(c, w, b) for ALL allocations of one share in one bottom-up pass
      // over the VF table, each step one contiguous total-seconds row of the
      // evaluation grid. A row read at min(w, row length) is exactly the
      // clamped cell predict_time would return, and allocation w is probed
      // at operating point f iff no lower point satisfied QoS - the same
      // lookup set, in a cache-friendly order, charging the same op count.
      QOSRM_CHECK_MSG(snap.oracle.valid(), "perfect model needs an oracle ref");
      const workload::SimDb& odb = *snap.oracle.db;
      const auto n_alloc = static_cast<std::size_t>(n_w);
      for (int b = b_lo; b <= b_hi; ++b) {
        f_star_.assign(n_alloc, -1);
        t_star_.assign(n_alloc, 0.0);
        const auto probe_row = [&](std::span<const double> row, int f_idx) {
          std::size_t resolved = 0;
          for (int w = w_lo; w <= w_hi; ++w) {
            const auto k = static_cast<std::size_t>(w - w_lo);
            if (f_star_[k] >= 0) {
              ++resolved;
              continue;
            }
            const int wc = std::min(w, static_cast<int>(row.size()));
            const double t = row[static_cast<std::size_t>(wc - 1)];
            ++local_ops;
            if (t <= t_base) {
              f_star_[k] = f_idx;
              t_star_[k] = t;
              ++resolved;
            }
          }
          return resolved == n_alloc;
        };
        if (opt_.allow_dvfs) {
          for (int f_idx = 0; f_idx < arch::VfTable::kNumPoints; ++f_idx) {
            const std::span<const double> row = odb.total_seconds_row(
                snap.oracle.app, snap.oracle.phase, c, f_idx, b);
            if (probe_row(row, f_idx)) break;
          }
        } else {
          constexpr int kBase = arch::VfTable::kBaselineIndex;
          probe_row(odb.total_seconds_row(snap.oracle.app, snap.oracle.phase,
                                          c, kBase, b),
                    kBase);
        }
        for (int w = w_lo; w <= w_hi; ++w) {
          const auto k = static_cast<std::size_t>(w - w_lo);
          if (f_star_[k] < 0) continue;
          consider(w, b, {c, f_star_[k], w, b}, t_star_[k]);
        }
      }
    }
  }

  if (ops != nullptr) *ops += local_ops;
}

}  // namespace qosrm::rm
