#include "rm/overheads.hh"

#include <algorithm>

#include "common/check.hh"

namespace qosrm::rm {

double OverheadModel::rm_instructions(std::uint64_t ops) const noexcept {
  return kRmInstrBase + kRmInstrPerOp * static_cast<double>(ops);
}

EnforcementCost OverheadModel::rm_execution(std::uint64_t ops,
                                            const workload::Setting& at,
                                            double ipc) const {
  QOSRM_CHECK(ipc > 0.0);
  const double instructions = rm_instructions(ops);
  const arch::OperatingPoint vf = arch::VfTable::point(at.f_idx);
  EnforcementCost cost;
  cost.time_s = instructions / (ipc * vf.freq_hz);
  cost.energy_j =
      power_->core_dynamic_energy(at.c, vf.voltage, instructions, 0.0) +
      power_->core_static_power(at.c, vf.voltage) * cost.time_s;
  return cost;
}

EnforcementCost OverheadModel::transition(const workload::Setting& from,
                                          const workload::Setting& to,
                                          double ipc) const {
  QOSRM_CHECK(ipc > 0.0);
  EnforcementCost cost;
  if (from.f_idx != to.f_idx) {
    cost.time_s += arch::kDvfsTransitionTimeS;
    cost.energy_j += arch::kDvfsTransitionEnergyJ;
  }
  if (from.c != to.c) {
    // Instruction fetch halts while the pipeline drains: about window/IPC
    // cycles at the old frequency (paper: "a few hundreds of cycles").
    const double drain_cycles =
        static_cast<double>(arch::core_params(from.c).rob) / ipc;
    const arch::OperatingPoint vf = arch::VfTable::point(from.f_idx);
    const double drain_s = drain_cycles / vf.freq_hz;
    cost.time_s += drain_s;
    cost.energy_j += power_->core_static_power(from.c, vf.voltage) * drain_s;
  }
  return cost;
}

}  // namespace qosrm::rm
