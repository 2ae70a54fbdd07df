#include "arch/dvfs.hh"

#include <gtest/gtest.h>

namespace qosrm::arch {
namespace {

TEST(Dvfs, TableCoversPaperRange) {
  // Table I: per-core range 1 - 3.25 GHz, 0.8 - 1.25 V.
  EXPECT_DOUBLE_EQ(VfTable::frequency_hz(0), 1.0e9);
  EXPECT_DOUBLE_EQ(VfTable::frequency_hz(VfTable::kNumPoints - 1), 3.25e9);
  EXPECT_DOUBLE_EQ(VfTable::voltage(0), 0.80);
  EXPECT_DOUBLE_EQ(VfTable::voltage(VfTable::kNumPoints - 1), 1.25);
}

TEST(Dvfs, BaselineIsTwoGigahertzOneVolt) {
  const OperatingPoint base = VfTable::baseline();
  EXPECT_DOUBLE_EQ(base.freq_hz, 2.0e9);
  EXPECT_DOUBLE_EQ(base.voltage, 1.0);
}

TEST(Dvfs, MonotoneFrequencyAndVoltage) {
  for (int i = 1; i < VfTable::kNumPoints; ++i) {
    EXPECT_GT(VfTable::frequency_hz(i), VfTable::frequency_hz(i - 1));
    EXPECT_GT(VfTable::voltage(i), VfTable::voltage(i - 1));
  }
}

TEST(Dvfs, TransitionCostMatchesPaper) {
  // Section III-E: 15 us and 3 uJ per DVFS change (Exynos 4210 numbers).
  EXPECT_DOUBLE_EQ(kDvfsTransitionTimeS, 15e-6);
  EXPECT_DOUBLE_EQ(kDvfsTransitionEnergyJ, 3e-6);
}

TEST(Dvfs, PointBundlesFrequencyAndVoltage) {
  for (int i = 0; i < VfTable::kNumPoints; ++i) {
    const OperatingPoint p = VfTable::point(i);
    EXPECT_DOUBLE_EQ(p.freq_hz, VfTable::frequency_hz(i));
    EXPECT_DOUBLE_EQ(p.voltage, VfTable::voltage(i));
  }
}

}  // namespace
}  // namespace qosrm::arch
