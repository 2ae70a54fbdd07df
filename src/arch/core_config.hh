// Adaptive core configurations (paper Table I).
//
// The core can be resized among three balanced configurations S/M/L by
// deactivating sections of the issue logic, reservation stations, load/store
// queue and reorder buffer. The paper models a 2-, 4- and 8-issue pipeline:
//
//              L     M     S
//   issue      8     4     2
//   ROB      256   128    64
//   RS       128    64    16
//   LSQ       64    32    10
//
// M is the baseline configuration. The relative energy parameters
// (energy-per-instruction and leakage scale) model the "often linear relation
// between core size and energy" the paper relies on: resizing trades a
// roughly linear energy cost against ILP/MLP, whereas DVFS trades a quadratic
// one.
#ifndef QOSRM_ARCH_CORE_CONFIG_HH
#define QOSRM_ARCH_CORE_CONFIG_HH

#include <array>
#include <cstdint>
#include <string_view>

namespace qosrm::arch {

enum class CoreSize : std::uint8_t { S = 0, M = 1, L = 2 };

inline constexpr int kNumCoreSizes = 3;

/// All core sizes in ascending order, for range-for sweeps.
inline constexpr std::array<CoreSize, kNumCoreSizes> kAllCoreSizes = {
    CoreSize::S, CoreSize::M, CoreSize::L};

/// Baseline ("mid-range") configuration used by the idle RM and as the QoS
/// reference setting.
inline constexpr CoreSize kBaselineCoreSize = CoreSize::M;

[[nodiscard]] constexpr int core_size_index(CoreSize c) noexcept {
  return static_cast<int>(c);
}

[[nodiscard]] std::string_view core_size_name(CoreSize c) noexcept;

/// Microarchitectural parameters of one core configuration.
struct CoreParams {
  CoreSize size;
  int issue_width;  ///< dispatch width D(c) used by the analytical model
  int rob;          ///< reorder-buffer entries (MLP window)
  int rs;           ///< reservation stations
  int lsq;          ///< load/store queue entries (bounds outstanding loads)
  double epi_scale;   ///< dynamic energy per instruction relative to M
  double leak_scale;  ///< leakage power relative to M (gated sections off)
};

/// Returns the Table I parameters of configuration `c`.
[[nodiscard]] const CoreParams& core_params(CoreSize c) noexcept;

}  // namespace qosrm::arch

#endif  // QOSRM_ARCH_CORE_CONFIG_HH
