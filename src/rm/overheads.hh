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
  [[nodiscard]] double rm_instructions(std::uint64_t ops) const noexcept;

  /// Cost of executing the RM algorithm on the invoking core at its current
  /// setting, at kRmIpc.
  [[nodiscard]] EnforcementCost rm_execution(std::uint64_t ops,
                                             const workload::Setting& at) const;

  /// Cost of switching a core from `from` to `to`: DVFS transition when the
  /// VF point changes, pipeline drain when the size changes. Way-mask
  /// updates are free (a register write).
  [[nodiscard]] EnforcementCost transition(const workload::Setting& from,
                                           const workload::Setting& to) const;

 private:
  const power::PowerModel* power_;
};

}  // namespace qosrm::rm

#endif  // QOSRM_RM_OVERHEADS_HH
