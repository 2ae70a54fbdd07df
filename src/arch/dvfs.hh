// Per-core DVFS operating points (paper Table I).
//
// Core frequency range 1.0 - 3.25 GHz in 0.125 GHz steps (19 points),
// voltage scaling linearly from 0.8 V to 1.25 V. The baseline operating
// point is 2 GHz / 1.0 V. Changing the VF setting costs 15 us and 3 uJ
// (paper Section III-E, numbers from the Samsung Exynos 4210 study).
#ifndef QOSRM_ARCH_DVFS_HH
#define QOSRM_ARCH_DVFS_HH

#include <cstddef>

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
  [[nodiscard]] static OperatingPoint point(int idx) noexcept;

  [[nodiscard]] static double frequency_hz(int idx) noexcept;
  [[nodiscard]] static double voltage(int idx) noexcept;

  [[nodiscard]] static OperatingPoint baseline() noexcept {
    return point(kBaselineIndex);
  }
};

/// DVFS transition overheads (paper Section III-E).
inline constexpr double kDvfsTransitionTimeS = 15e-6;
inline constexpr double kDvfsTransitionEnergyJ = 3e-6;

}  // namespace qosrm::arch

#endif  // QOSRM_ARCH_DVFS_HH
