#include "rm/perf_model.hh"

#include <algorithm>

#include "arch/dvfs.hh"
#include "common/check.hh"

namespace qosrm::rm {

const char* perf_model_name(PerfModelKind kind) noexcept {
  switch (kind) {
    case PerfModelKind::Model1:
      return "Model1";
    case PerfModelKind::Model2:
      return "Model2";
    case PerfModelKind::Model3:
      return "Model3";
    case PerfModelKind::Perfect:
      return "Perfect";
  }
  return "?";
}

double PerfModel::predict_mem_time(const CounterSnapshot& snap,
                                   const workload::Setting& target) const {
  // CBP bandwidth term: the counter-based models see the granted
  // memory-bandwidth share as a scaled effective DRAM latency, exactly as
  // the ground truth does (arch::bw_latency_scale). At the baseline share
  // the scale is exactly 1.0, so ways-only predictions are bit-identical.
  const double l_mem =
      system_.mem_latency_s * arch::bw_latency_scale(system_.bw, target.b);
  switch (kind_) {
    case PerfModelKind::Model1:
      // All misses serialize - no MLP notion at all.
      return snap.atd_misses_at(target.w) * l_mem;
    case PerfModelKind::Model2: {
      // MLP measured over the past interval at the current (c, w) assumed
      // constant across every target setting (prior work's assumption).
      const double mlp = std::max(1.0, snap.measured_mlp);
      return snap.atd_misses_at(target.w) / mlp * l_mem;
    }
    case PerfModelKind::Model3:
      // Proposed: leading misses estimated per (core size, allocation).
      return snap.atd_leading_at(target.c, target.w) * l_mem;
    case PerfModelKind::Perfect: {
      QOSRM_CHECK_MSG(snap.oracle.valid(), "perfect model needs an oracle ref");
      return snap.oracle.db->mem_seconds(snap.oracle.app, snap.oracle.phase, target);
    }
  }
  return 0.0;
}

double PerfModel::predict_time(const CounterSnapshot& snap,
                               const workload::Setting& target) const {
  if (kind_ == PerfModelKind::Perfect) {
    QOSRM_CHECK_MSG(snap.oracle.valid(), "perfect model needs an oracle ref");
    return snap.oracle.db->total_seconds(snap.oracle.app, snap.oracle.phase,
                                         target);
  }

  const double d_cur =
      static_cast<double>(arch::core_params(snap.current.c).issue_width);
  const double d_tgt = static_cast<double>(arch::core_params(target.c).issue_width);
  const double f_cur = arch::VfTable::frequency_hz(snap.current.f_idx);
  const double f_tgt = arch::VfTable::frequency_hz(target.f_idx);

  // Eq. 1: the dispatch-width-bound compute time scales linearly with the
  // width ratio; the dependency-bound part and the branch/private-cache
  // component are size-invariant; all core time scales with the frequency
  // ratio; memory stall time is frequency-invariant.
  const double t_invariant = snap.t_ilp_s + snap.t_branch_s + snap.t_cache_s;
  const double core_time =
      (snap.t_width_s * d_cur / d_tgt + t_invariant) * (f_cur / f_tgt);
  return core_time + predict_mem_time(snap, target);
}

bool PerfModel::qos_ok(const CounterSnapshot& snap,
                       const workload::Setting& target) const {
  const workload::Setting base = workload::baseline_setting(system_);
  const double t_target = predict_time(snap, target);
  const double t_base = predict_time(snap, base);
  return t_target <= t_base * system_.qos_alpha;
}

}  // namespace qosrm::rm
