#include "arch/dvfs.hh"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

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
  static_assert(VfTable::kBaselineIndex == 8);
  static_assert(VfTable::baseline().freq_hz == 2.0e9);
  static_assert(VfTable::baseline().voltage == 1.0);
  const OperatingPoint base = VfTable::point(8);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(base.freq_hz),
            std::bit_cast<std::uint64_t>(2.0e9));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(base.voltage),
            std::bit_cast<std::uint64_t>(1.0));
}

// The table is built at compile time; every point must equal the Table I
// formula evaluated at run time (volatile inputs, so nothing folds), bit for
// bit, because the simulation database and every golden were produced by
// that formula.
TEST(Dvfs, CompileTimeTableEqualsRunTimeFormulaBitForBit) {
  volatile double min_f = VfTable::kMinFreqHz;
  volatile double step = VfTable::kStepHz;
  volatile double min_v = VfTable::kMinVolt;
  volatile double max_v = VfTable::kMaxVolt;
  volatile int num_points = VfTable::kNumPoints;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const double span_hz = step * static_cast<double>(num_points - 1);
  for (int idx = 0; idx < VfTable::kNumPoints; ++idx) {
    const double f = min_f + step * static_cast<double>(idx);
    const double t = (f - min_f) / span_hz;
    const double v = min_v + t * (max_v - min_v);
    EXPECT_EQ(bits(VfTable::point(idx).freq_hz), bits(f)) << "index " << idx;
    EXPECT_EQ(bits(VfTable::point(idx).voltage), bits(v)) << "index " << idx;
    EXPECT_EQ(bits(VfTable::frequency_hz(idx)), bits(f)) << "index " << idx;
    EXPECT_EQ(bits(VfTable::voltage(idx)), bits(v)) << "index " << idx;
  }
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
