// RM overhead models (paper Section III-E).
//
// Three components:
//   1. executing the RM algorithm in software - modelled as instructions
//      proportional to the optimizer's model-evaluation/DP-step count,
//      calibrated against the paper's 51K / 73K / 100K instructions for
//      2/4/8-core systems;
//   2. enforcing a VF change - 15 us / 3 uJ (Samsung Exynos 4210 numbers);
//   3. resizing the core - pipeline drain of ROB/IPC cycles.
#ifndef QOSRM_RM_OVERHEADS_HH
#define QOSRM_RM_OVERHEADS_HH

#include <cstdint>

#include "arch/core_config.hh"
#include "arch/dvfs.hh"
#include "power/power_model.hh"
#include "workload/sim_db.hh"

namespace qosrm::rm {

/// RM-execution instruction model: instructions = kRmInstrBase +
/// kRmInstrPerOp x ops.
inline constexpr double kRmInstrBase = 31e3;  ///< bookkeeping, curves
inline constexpr double kRmInstrPerOp = 19.0;  ///< per optimizer op (calibrated)
/// IPC the RM code sustains, and the IPC a resize drains the window at.
inline constexpr double kRmIpc = 2.0;

/// Time/energy cost charged to a core.
struct EnforcementCost {
  double time_s = 0.0;
  double energy_j = 0.0;

  EnforcementCost& operator+=(const EnforcementCost& other) noexcept {
    time_s += other.time_s;
    energy_j += other.energy_j;
    return *this;
  }
};

class OverheadModel {
 public:
  explicit OverheadModel(const power::PowerModel& power) : power_(&power) {}

  /// Instruction count of one RM invocation that performed `ops` optimizer
  /// operations.
  [[nodiscard]] double rm_instructions(std::uint64_t ops) const noexcept {
    return kRmInstrBase + kRmInstrPerOp * static_cast<double>(ops);
  }

  /// Cost of executing the RM algorithm on the invoking core at its current
  /// setting, at kRmIpc.
  [[nodiscard]] EnforcementCost rm_execution(std::uint64_t ops,
                                             const workload::Setting& at) const {
    const double instructions = rm_instructions(ops);
    const arch::OperatingPoint vf = arch::VfTable::point(at.f_idx);
    EnforcementCost cost;
    cost.time_s = instructions / (kRmIpc * vf.freq_hz);
    cost.energy_j =
        power_->core_dynamic_energy(at.c, vf.voltage, instructions, 0.0) +
        power_->core_static_power(at.c, vf.voltage) * cost.time_s;
    return cost;
  }

  /// Cost of switching a core from `from` to `to`: DVFS transition when the
  /// VF point changes, pipeline drain when the size changes. Way-mask
  /// updates are free (a register write).
  [[nodiscard]] EnforcementCost transition(const workload::Setting& from,
                                           const workload::Setting& to) const {
    EnforcementCost cost;
    if (from.f_idx != to.f_idx) {
      cost.time_s += arch::kDvfsTransitionTimeS;
      cost.energy_j += arch::kDvfsTransitionEnergyJ;
    }
    if (from.c != to.c) {
      // Instruction fetch halts while the pipeline drains: ROB/kRmIpc cycles
      // at the old frequency, i.e. 64 cycles from an M core and 128 from an
      // L core. Both are below the paper's estimate of "a few hundreds of
      // cycles".
      const double drain_cycles =
          static_cast<double>(arch::core_params(from.c).rob) / kRmIpc;
      const arch::OperatingPoint vf = arch::VfTable::point(from.f_idx);
      const double drain_s = drain_cycles / vf.freq_hz;
      cost.time_s += drain_s;
      cost.energy_j += power_->core_static_power(from.c, vf.voltage) * drain_s;
    }
    return cost;
  }

 private:
  const power::PowerModel* power_;
};

}  // namespace qosrm::rm

#endif  // QOSRM_RM_OVERHEADS_HH
