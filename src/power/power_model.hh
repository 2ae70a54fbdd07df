// McPAT-flavoured power/energy model.
//
// Energy is decomposed the way the paper's Eq. 4-5 expects:
//   * core dynamic  - per-instruction switching energy, quadratic in voltage,
//                     scaled by core size (epi_scale); plus a small clocking
//                     cost for cycles stalled on memory;
//   * core static   - leakage, linear in voltage, scaled by active area
//                     (leak_scale; gated sections of S/M leak nothing);
//   * memory        - per-DRAM-access energy (misses + writebacks);
//   * uncore        - constant power for LLC + NoC, accounted against wall
//                     time at the system level.
//
// The default constants are calibrated so an M core at 2 GHz / 1 V running
// IPC 2 draws ~2 W dynamic + 0.5 W leakage - representative of a mobile-class
// out-of-order core, which is what makes the paper's DVFS-vs-core-size
// trade-offs meaningful.
#ifndef QOSRM_POWER_POWER_MODEL_HH
#define QOSRM_POWER_POWER_MODEL_HH

#include "arch/core_config.hh"
#include "arch/core_model.hh"
#include "arch/dvfs.hh"
#include "common/check.hh"

namespace qosrm::power {

struct PowerParams {
  double epi_joule = 1.55e-9;       ///< dyn energy/instr, M core @ 1 V
  double stall_epc_joule = 0.12e-9; ///< dyn energy/stalled cycle @ 1 V (clock tree)
  double leak_watt = 0.35;          ///< leakage, M core @ 1 V
  double mem_energy_joule = 26e-9;  ///< DRAM energy per access
  double uncore_base_watt = 0.30;   ///< LLC+NoC constant component
  double uncore_per_core_watt = 0.12;
};

/// Per-interval energy decomposition for one core (uncore excluded; it is a
/// system-level wall-time cost).
struct IntervalEnergy {
  double core_dynamic_j = 0.0;
  double core_static_j = 0.0;
  double memory_j = 0.0;

  [[nodiscard]] double core_j() const noexcept {
    return core_dynamic_j + core_static_j;
  }
  [[nodiscard]] double total_j() const noexcept { return core_j() + memory_j; }
};

class PowerModel {
 public:
  explicit PowerModel(const PowerParams& params = {}) : p_(params) {}

  /// Dynamic energy of retiring `instructions` and spending
  /// `stalled_cycles` clocked-but-stalled at core size `c`, voltage `v`.
  [[nodiscard]] double core_dynamic_energy(arch::CoreSize c, double v,
                                           double instructions,
                                           double stalled_cycles) const noexcept {
    QOSRM_DCHECK(v > 0.0);
    const double scale = arch::core_params(c).epi_scale * v * v;
    return scale * (p_.epi_joule * instructions + p_.stall_epc_joule * stalled_cycles);
  }

  /// Leakage power (W) of core size `c` at voltage `v`.
  [[nodiscard]] double core_static_power(arch::CoreSize c, double v) const noexcept {
    return p_.leak_watt * arch::core_params(c).leak_scale * v;
  }

  /// DRAM energy for `accesses` memory transactions.
  [[nodiscard]] double memory_energy(double accesses) const noexcept;

  /// Constant uncore (LLC + NoC) power of an n-core system.
  [[nodiscard]] double uncore_power(int cores) const noexcept;

  /// Full ground-truth interval energy at (c, vf) given the interval timing
  /// and the LLC miss count (which equals the DRAM access count here;
  /// writebacks are folded into the per-access energy).
  [[nodiscard]] IntervalEnergy interval_energy(arch::CoreSize c,
                                               const arch::OperatingPoint& vf,
                                               const arch::IntervalTiming& timing,
                                               double instructions,
                                               double llc_misses) const noexcept;

  [[nodiscard]] const PowerParams& params() const noexcept { return p_; }

 private:
  PowerParams p_;
};

}  // namespace qosrm::power

#endif  // QOSRM_POWER_POWER_MODEL_HH
