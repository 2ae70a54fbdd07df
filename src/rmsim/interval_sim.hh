// The multi-core RM simulator (paper Fig. 5 and Section IV-A/IV-D.1): a
// closed-mix driver over the per-core interval kernel (rmsim/core_timeline).
// Every application of the mix is seated at t = 0 with the whole machine in
// the RM's mask; the simulator advances to the next global event (the
// earliest interval completion) and lets the kernel invoke the RM there.
//
// End-of-run rule (paper IV-D.1): every application restarts until it has
// executed at least the instruction count of the LONGEST application in the
// workload. Per-application core+memory energy is counted up to that bound;
// uncore energy accrues until the last core finishes.
#ifndef QOSRM_RMSIM_INTERVAL_SIM_HH
#define QOSRM_RMSIM_INTERVAL_SIM_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rmsim/core_timeline.hh"
#include "workload/workload_gen.hh"

namespace qosrm::rmsim {

/// Per-core outcome of one run.
struct CoreResult {
  int app = -1;
  double counted_energy_j = 0.0;  ///< core+memory energy up to the bound
  double executed_instructions = 0.0;
  std::uint64_t intervals = 0;
  std::uint64_t qos_violations = 0;
  double violation_sum = 0.0;  ///< sum of Eq. 6 magnitudes
  double violation_max = 0.0;
};

struct RunResult {
  std::string workload;
  workload::Scenario scenario = workload::Scenario::One;
  rm::RmPolicy policy = rm::RmPolicy::Idle;
  rm::PerfModelKind model = rm::PerfModelKind::Model3;

  std::vector<CoreResult> cores;
  double uncore_energy_j = 0.0;
  double wall_time_s = 0.0;
  std::uint64_t rm_invocations = 0;
  std::uint64_t rm_ops = 0;

  [[nodiscard]] double total_energy_j() const noexcept;
  [[nodiscard]] std::uint64_t total_intervals() const noexcept;
  [[nodiscard]] std::uint64_t total_violations() const noexcept;
  [[nodiscard]] double violation_rate() const noexcept;
};

/// Observation hook: called after every completed interval with the core id,
/// the setting it ran at, and the interval's time/energy.
struct IntervalObservation {
  int core = 0;
  int app = 0;
  int phase = 0;
  workload::Setting setting{};
  double start_s = 0.0;
  double duration_s = 0.0;
  double energy_j = 0.0;
};
using IntervalObserver = std::function<void(const IntervalObservation&)>;

/// Reusable cross-run scratch for IntervalSimulator::run(): the kernel's
/// per-core state and counter-snapshot buffers survive between runs, so a
/// lane executing many sweep rows pays the warmup allocations once instead
/// of once per row. NOT thread-safe - keep one scratch per lane.
using RunScratch = IntervalKernel;

class IntervalSimulator {
 public:
  IntervalSimulator(const workload::SimDb& db, const SimOptions& options = {});

  /// Runs `mix` under the given RM configuration. `scratch` (optional) makes
  /// repeated runs reuse per-core buffers; `memo` (optional) is lent to the
  /// run's manager, which rescopes it to its RM configuration, so runs of
  /// one configuration reuse each other's interval outcomes. Results are
  /// identical either way.
  [[nodiscard]] RunResult run(const workload::WorkloadMix& mix,
                              const rm::RmConfig& rm_config,
                              const IntervalObserver& observer = {},
                              RunScratch* scratch = nullptr,
                              rm::OutcomeMemo* memo = nullptr) const;

  [[nodiscard]] const SimOptions& options() const noexcept { return opt_; }

 private:
  const workload::SimDb* db_;
  SimOptions opt_;
};

/// Energy saving of `run` relative to the idle-RM reference:
/// 1 - E_run / E_idle.
[[nodiscard]] double energy_savings(const RunResult& run, const RunResult& idle);

}  // namespace qosrm::rmsim

#endif  // QOSRM_RMSIM_INTERVAL_SIM_HH
