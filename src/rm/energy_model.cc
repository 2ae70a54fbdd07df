#include "rm/energy_model.hh"

#include <algorithm>

#include "arch/dvfs.hh"
#include "common/check.hh"

namespace qosrm::rm {

double OnlineEnergyModel::memory_energy(const CounterSnapshot& snap,
                                        int target_ways) const {
  // Eq. 5: MA_i memory accesses observed over the past interval (fills plus
  // writebacks), corrected by the ATD-predicted miss difference DM between
  // the target and current allocations. DM scales by the measured
  // writeback-per-miss ratio: fewer fills also mean fewer dirty evictions.
  const double ma = snap.llc_misses + snap.writebacks;
  const double wb_ratio =
      snap.llc_misses > 0.0 ? snap.writebacks / snap.llc_misses : 0.0;
  const double dm =
      snap.atd_misses_at(target_ways) - snap.atd_misses_at(snap.current.w);
  const double accesses = std::max(0.0, ma + dm * (1.0 + wb_ratio));
  return accesses * offline_->params().mem_energy_joule;
}

double OnlineEnergyModel::estimate(const CounterSnapshot& snap,
                                   const workload::Setting& target,
                                   double predicted_time_s) const {
  if (opt_.perfect) {
    QOSRM_CHECK_MSG(snap.oracle.valid(), "perfect energy model needs oracle ref");
    return snap.oracle.db->total_joules(snap.oracle.app, snap.oracle.phase,
                                        target);
  }

  const arch::OperatingPoint vf = arch::VfTable::point(target.f_idx);
  const power::PowerSample& sample = snap.power_sample;
  QOSRM_CHECK_MSG(sample.valid, "energy model requires a power sample");

  // Scale the sampled dynamic energy to the target size and VF point. The
  // size ratio comes from offline characterization (paper: dynamic power is
  // sampled per core size; we transfer across sizes with the EPI ratio).
  const double size_ratio = arch::core_params(target.c).epi_scale /
                            arch::core_params(sample.size).epi_scale;
  const double v_ratio = (vf.voltage * vf.voltage) / (sample.voltage * sample.voltage);
  const double e_dyn =
      opt_.literal_eq4
          ? sample.dynamic_power_w * size_ratio * v_ratio * predicted_time_s
          : sample.dynamic_energy_j * size_ratio * v_ratio;

  const double p_static = offline_->core_static_power(target.c, vf.voltage);

  return e_dyn + p_static * predicted_time_s + memory_energy(snap, target.w);
}

}  // namespace qosrm::rm
