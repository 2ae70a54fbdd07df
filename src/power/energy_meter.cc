#include "power/energy_meter.hh"

#include <algorithm>

#include "common/check.hh"

namespace qosrm::power {

PowerSample sample_interval(const PowerModel& model, arch::CoreSize c,
                            const arch::OperatingPoint& vf, double core_energy_j,
                            double duration_s) {
  QOSRM_CHECK(duration_s > 0.0);
  const double static_j = model.core_static_power(c, vf.voltage) * duration_s;
  PowerSample sample;
  sample.size = c;
  sample.voltage = vf.voltage;
  sample.freq_hz = vf.freq_hz;
  sample.dynamic_energy_j = std::max(0.0, core_energy_j - static_j);
  sample.dynamic_power_w = sample.dynamic_energy_j / duration_s;
  sample.duration_s = duration_s;
  sample.valid = true;
  return sample;
}

}  // namespace qosrm::power
