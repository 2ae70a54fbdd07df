#include "rm/overheads.hh"

namespace qosrm::rm {

double OverheadModel::rm_instructions(std::uint64_t ops) const noexcept {
  return kRmInstrBase + kRmInstrPerOp * static_cast<double>(ops);
}

EnforcementCost OverheadModel::rm_execution(std::uint64_t ops,
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

EnforcementCost OverheadModel::transition(const workload::Setting& from,
                                          const workload::Setting& to) const {
  EnforcementCost cost;
  if (from.f_idx != to.f_idx) {
    cost.time_s += arch::kDvfsTransitionTimeS;
    cost.energy_j += arch::kDvfsTransitionEnergyJ;
  }
  if (from.c != to.c) {
    // Instruction fetch halts while the pipeline drains: ROB/kRmIpc cycles
    // at the old frequency, i.e. 64 cycles from an M core and 128 from an L
    // core. Both are below the paper's estimate of "a few hundreds of
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

}  // namespace qosrm::rm
