// The RAPL-like energy measurement path (power/energy_meter.hh): each
// interval's power sample comes from power::sample_interval.
#include "power/energy_meter.hh"

#include <gtest/gtest.h>

namespace qosrm::power {
namespace {

using arch::CoreSize;

TEST(EnergyMeter, InvalidBeforeFirstSample) {
  EXPECT_FALSE(PowerSample{}.valid);
}

TEST(EnergyMeter, SeparatesDynamicFromStatic) {
  PowerModel pm;
  const arch::OperatingPoint vf = arch::VfTable::baseline();
  const double duration = 0.05;
  const double static_j = pm.core_static_power(CoreSize::M, vf.voltage) * duration;
  const double dynamic_j = 0.080;
  const PowerSample s =
      sample_interval(pm, CoreSize::M, vf, static_j + dynamic_j, duration);

  EXPECT_TRUE(s.valid);
  EXPECT_EQ(s.size, CoreSize::M);
  EXPECT_DOUBLE_EQ(s.voltage, vf.voltage);
  EXPECT_DOUBLE_EQ(s.freq_hz, vf.freq_hz);
  EXPECT_NEAR(s.dynamic_energy_j, dynamic_j, 1e-12);
  EXPECT_NEAR(s.dynamic_power_w, dynamic_j / duration, 1e-9);
  EXPECT_DOUBLE_EQ(s.duration_s, duration);
}

TEST(EnergyMeter, ClampsNegativeDynamicToZero) {
  // Measured energy below the static estimate (measurement noise) must not
  // produce a negative dynamic sample.
  PowerModel pm;
  const arch::OperatingPoint vf = arch::VfTable::baseline();
  EXPECT_DOUBLE_EQ(
      sample_interval(pm, CoreSize::M, vf, 1e-6, 0.05).dynamic_energy_j, 0.0);
}

TEST(EnergyMeter, StaticPowerTableMatchesOfflineModel) {
  // The dynamic part is whatever the reading holds beyond the offline
  // table's static energy for the sampled core size, at every size.
  PowerModel pm;
  const arch::OperatingPoint vf = arch::VfTable::point(12);
  for (const CoreSize c : arch::kAllCoreSizes) {
    const double static_j = pm.core_static_power(c, vf.voltage) * 0.05;
    const PowerSample s = sample_interval(pm, c, vf, static_j + 0.01, 0.05);
    EXPECT_EQ(s.size, c);
    EXPECT_NEAR(s.dynamic_energy_j, 0.01, 1e-12);
  }
}

}  // namespace
}  // namespace qosrm::power
