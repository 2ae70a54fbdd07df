#include "power/power_model.hh"

#include "common/check.hh"

namespace qosrm::power {

double PowerModel::memory_energy(double accesses) const noexcept {
  return p_.mem_energy_joule * accesses;
}

double PowerModel::uncore_power(int cores) const noexcept {
  QOSRM_DCHECK(cores > 0);
  return p_.uncore_base_watt + p_.uncore_per_core_watt * static_cast<double>(cores);
}

IntervalEnergy PowerModel::interval_energy(arch::CoreSize c,
                                           const arch::OperatingPoint& vf,
                                           const arch::IntervalTiming& timing,
                                           double instructions,
                                           double llc_misses) const noexcept {
  IntervalEnergy e;
  // Cycles spent stalled on memory still toggle the clock tree.
  const double stalled_cycles = timing.mem_seconds * vf.freq_hz;
  e.core_dynamic_j = core_dynamic_energy(c, vf.voltage, instructions, stalled_cycles);
  e.core_static_j = core_static_power(c, vf.voltage) * timing.total_seconds;
  e.memory_j = memory_energy(llc_misses);
  return e;
}

}  // namespace qosrm::power
