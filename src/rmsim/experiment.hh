// Experiment harness shared by the benches reproducing Figures 2, 6 and 9:
// runs workload mixes under several RM configurations and reports energy
// savings relative to the idle RM (cached per workload).
#ifndef QOSRM_RMSIM_EXPERIMENT_HH
#define QOSRM_RMSIM_EXPERIMENT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/once_cache.hh"
#include "rmsim/interval_sim.hh"

namespace qosrm::rmsim {

/// One bar of Fig. 6 / Fig. 9: a workload run under a specific RM config.
struct SavingsResult {
  RunResult run;
  double savings = 0.0;  ///< vs the idle RM on the same workload
};

/// Thread-safe: run() and idle_reference() may be called concurrently from
/// any number of threads (the sweep subsystem spreads a policy grid over one
/// runner). Idle references are materialized through a compute-once cache,
/// so each workload's reference is simulated exactly once per runner.
class ExperimentRunner {
 public:
  ExperimentRunner(const workload::SimDb& db, const SimOptions& sim = {});

  /// Runs `mix` under `config` and computes savings vs the idle reference
  /// (computed once per workload and cached). An Idle-policy config reuses
  /// the reference run itself instead of re-simulating. `scratch` (optional)
  /// lets a worker thread reuse simulation buffers across rows; it must not
  /// be shared between threads.
  [[nodiscard]] SavingsResult run(const workload::WorkloadMix& mix,
                                  const rm::RmConfig& config,
                                  RunScratch* scratch = nullptr);

  /// The idle-RM reference run for a workload.
  [[nodiscard]] const RunResult& idle_reference(const workload::WorkloadMix& mix,
                                                RunScratch* scratch = nullptr);

  /// Number of idle-reference simulations actually executed so far (at most
  /// one per distinct workload, however many threads race on it).
  [[nodiscard]] std::size_t idle_computations() const noexcept {
    return idle_cache_.computations();
  }

  [[nodiscard]] const workload::SimDb& db() const noexcept { return *db_; }

 private:
  const workload::SimDb* db_;
  IntervalSimulator sim_;
  OnceCache<std::string, RunResult> idle_cache_;
};

/// Scenario weights for averaging (paper: 47 / 22.1 / 22.1 / 8.8 %), derived
/// from the suite's category populations via the Fig. 1 mix table.
[[nodiscard]] std::array<double, 4> scenario_weights(const workload::SpecSuite& suite);

/// Weighted average over per-workload savings: workloads of one scenario are
/// first averaged uniformly, then scenarios combine with `weights`.
[[nodiscard]] double weighted_average_savings(
    const std::vector<workload::Scenario>& scenario_of_row,
    const std::vector<double>& savings, const std::array<double, 4>& weights);

}  // namespace qosrm::rmsim

#endif  // QOSRM_RMSIM_EXPERIMENT_HH
