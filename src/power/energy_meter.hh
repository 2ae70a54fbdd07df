// RAPL-like per-core energy sampling (paper Section III-D).
//
// The paper assumes the RM can measure total core energy over an interval
// and subtract the (offline-characterized) static component to obtain the
// sampled dynamic power P*_CoreDyn at the sampling voltage V*.
// sample_interval models that measurement path so the online energy model
// (rm/energy_model) never touches ground-truth internals directly.
#ifndef QOSRM_POWER_ENERGY_METER_HH
#define QOSRM_POWER_ENERGY_METER_HH

#include "arch/core_config.hh"
#include "arch/dvfs.hh"
#include "power/power_model.hh"

namespace qosrm::power {

/// One dynamic-power sample: P*_CoreDyn at configuration (size, V*, f*),
/// plus the underlying measured quantities (the sampled interval's dynamic
/// ENERGY and duration) so energy-conserving scaling is possible.
struct PowerSample {
  arch::CoreSize size = arch::CoreSize::M;
  double voltage = 1.0;
  double freq_hz = 2e9;
  double dynamic_power_w = 0.0;
  double dynamic_energy_j = 0.0;  ///< P*_CoreDyn * sample duration
  double duration_s = 0.0;        ///< sampled interval duration
  bool valid = false;
};

/// The dynamic-power sample of one measured interval: `core_energy_j` is
/// the total core energy (dynamic + static) observed over `duration_s` at
/// (c, vf); the static part comes from the offline static-power table (paper:
/// "static power ... measured offline"). A reading below the static estimate
/// (measurement noise) yields zero dynamic energy.
[[nodiscard]] PowerSample sample_interval(const PowerModel& model,
                                          arch::CoreSize c,
                                          const arch::OperatingPoint& vf,
                                          double core_energy_j,
                                          double duration_s);

}  // namespace qosrm::power

#endif  // QOSRM_POWER_ENERGY_METER_HH
