// Online energy model (paper Eq. 4-5).
//
//   E_i+1(c,f,w) = [ P*_CoreDyn(c) * V(f)^2/V*^2 + P_CoreStatic(c,f) ]
//                    * T_i+1(c,f,w)  +  E_mem,i+1(w)
//   E_mem,i+1(w) = (MA_i + DM_i(w)) * e_mem
//
// P*_CoreDyn is the RAPL-like dynamic-power sample of the past interval
// (power::sample_interval); the static power table and the per-size
// capacitance ratios are offline characterization the RM is allowed to know.
//
// Dynamic-term scaling: switching energy is per unit of WORK (C*V^2 per
// instruction), not per unit of time, and the RM interval is a fixed
// instruction count. The default therefore scales the SAMPLED DYNAMIC ENERGY
// by the size and voltage-squared ratios (energy-conserving form, which is
// Eq. 4 with T_i+1 evaluated at the sampled interval's duration). Setting
// `literal_eq4` multiplies the scaled dynamic POWER by the predicted time
// instead - Eq. 4 exactly as printed - which systematically underestimates
// settings that finish the work in fewer cycles (see DESIGN.md).
#ifndef QOSRM_RM_ENERGY_MODEL_HH
#define QOSRM_RM_ENERGY_MODEL_HH

#include "power/power_model.hh"
#include "rm/counters.hh"

namespace qosrm::rm {

struct EnergyModelOptions {
  bool literal_eq4 = false;  ///< use Eq. 4 exactly as printed (no f ratio)
  bool perfect = false;      ///< ground-truth energy via the oracle (Fig. 9)
  bool operator==(const EnergyModelOptions&) const = default;
};

class OnlineEnergyModel {
 public:
  /// `offline` provides the static-power table, the per-size EPI ratios and
  /// the per-access memory energy (all offline-characterizable constants).
  OnlineEnergyModel(const power::PowerModel& offline,
                    const EnergyModelOptions& options = {})
      : offline_(&offline), opt_(options) {}

  /// Estimated energy of the upcoming interval at `target`, given the
  /// model-predicted execution time `predicted_time_s`.
  [[nodiscard]] double estimate(const CounterSnapshot& snap,
                                const workload::Setting& target,
                                double predicted_time_s) const;

  /// Eq. 5's memory term alone.
  [[nodiscard]] double memory_energy(const CounterSnapshot& snap,
                                     int target_ways) const;

  [[nodiscard]] const EnergyModelOptions& options() const noexcept { return opt_; }

 private:
  const power::PowerModel* offline_;
  EnergyModelOptions opt_;
};

}  // namespace qosrm::rm

#endif  // QOSRM_RM_ENERGY_MODEL_HH
