// Per-core DVFS operating points (paper Table I).
//
// Core frequency range 1.0 - 3.25 GHz in 0.125 GHz steps (19 points),
// voltage scaling linearly from 0.8 V to 1.25 V. The baseline operating
// point is 2 GHz / 1.0 V. Changing the VF setting costs 15 us and 3 uJ
// (paper Section III-E, numbers from the Samsung Exynos 4210 study).
#ifndef QOSRM_ARCH_DVFS_HH
#define QOSRM_ARCH_DVFS_HH

#include <array>
#include <cstddef>

#include "common/check.hh"

namespace qosrm::arch {

/// One voltage-frequency pair.
struct OperatingPoint {
  double freq_hz;
  double voltage;
};

/// The discrete VF table shared by all cores.
class VfTable {
 public:
  static constexpr int kNumPoints = 19;
  static constexpr double kMinFreqHz = 1.0e9;
  static constexpr double kStepHz = 0.125e9;
  static constexpr double kMinVolt = 0.80;
  static constexpr double kMaxVolt = 1.25;
  /// Baseline = 2.0 GHz / 1.0 V (index 8).
  static constexpr int kBaselineIndex = 8;

  /// Operating point at table index `idx` in [0, kNumPoints).
  [[nodiscard]] static constexpr OperatingPoint point(int idx) noexcept {
    QOSRM_DCHECK(idx >= 0 && idx < kNumPoints);
    return kPoints[static_cast<std::size_t>(idx)];
  }

  [[nodiscard]] static constexpr double frequency_hz(int idx) noexcept {
    return point(idx).freq_hz;
  }
  [[nodiscard]] static constexpr double voltage(int idx) noexcept {
    return point(idx).voltage;
  }

  [[nodiscard]] static constexpr OperatingPoint baseline() noexcept {
    return point(kBaselineIndex);
  }

 private:
  static const std::array<OperatingPoint, kNumPoints> kPoints;
};

/// The table, evaluated at compile time: f = kMinFreqHz + idx * kStepHz,
/// and V linear in f from kMinVolt to kMaxVolt. Compile-time IEEE arithmetic
/// rounds like run-time arithmetic, so each entry is bit-identical to the
/// formula evaluated at run time (tests/arch/test_dvfs.cc checks all 19).
inline constexpr std::array<OperatingPoint, VfTable::kNumPoints> VfTable::kPoints =
    [] {
      std::array<OperatingPoint, kNumPoints> points{};
      const double span_hz = kStepHz * static_cast<double>(kNumPoints - 1);
      for (int idx = 0; idx < kNumPoints; ++idx) {
        const double f = kMinFreqHz + kStepHz * static_cast<double>(idx);
        const double t = (f - kMinFreqHz) / span_hz;
        points[static_cast<std::size_t>(idx)] = {f, kMinVolt + t * (kMaxVolt - kMinVolt)};
      }
      return points;
    }();

/// DVFS transition overheads (paper Section III-E).
inline constexpr double kDvfsTransitionTimeS = 15e-6;
inline constexpr double kDvfsTransitionEnergyJ = 3e-6;

}  // namespace qosrm::arch

#endif  // QOSRM_ARCH_DVFS_HH
