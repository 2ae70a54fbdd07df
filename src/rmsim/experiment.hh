// Experiment harness shared by the benches reproducing Figures 2, 6 and 9:
// runs workload mixes under several RM configurations and reports energy
// savings relative to the idle RM on the same workload.
#ifndef QOSRM_RMSIM_EXPERIMENT_HH
#define QOSRM_RMSIM_EXPERIMENT_HH

#include <array>
#include <map>
#include <string>
#include <vector>

#include "rmsim/interval_sim.hh"

namespace qosrm::rmsim {

/// One bar of Fig. 6 / Fig. 9: a workload run under a specific RM config.
struct SavingsResult {
  RunResult run;
  double savings = 0.0;  ///< vs the idle RM on the same workload
};

/// The idle-RM reference run of `mix` under `sim`.
[[nodiscard]] RunResult run_idle_reference(const IntervalSimulator& sim,
                                           const workload::WorkloadMix& mix,
                                           RunScratch* scratch = nullptr);

/// Runs `mix` under `config` and computes savings vs `idle`, the mix's
/// idle reference under the same simulator. An Idle-policy config reuses
/// `idle` itself instead of re-simulating the same trajectory; only the
/// reported model tag differs. `scratch` and `memo` are passed to
/// IntervalSimulator::run. Thread-safe for distinct scratches and memos.
[[nodiscard]] SavingsResult run_against_idle(const IntervalSimulator& sim,
                                             const workload::WorkloadMix& mix,
                                             const rm::RmConfig& config,
                                             const RunResult& idle,
                                             RunScratch* scratch = nullptr,
                                             rm::OutcomeMemo* memo = nullptr);

/// A single-thread runner: the idle references it simulates are kept in a
/// plain map, one per workload name, for the runner's lifetime. The sweep
/// runs its grid in parallel through run_against_idle instead.
class ExperimentRunner {
 public:
  ExperimentRunner(const workload::SimDb& db, const SimOptions& sim = {});

  /// Runs `mix` under `config` and computes savings vs the idle reference
  /// (computed once per workload and cached); see run_against_idle.
  /// `scratch` (optional) reuses simulation buffers across rows.
  [[nodiscard]] SavingsResult run(const workload::WorkloadMix& mix,
                                  const rm::RmConfig& config,
                                  RunScratch* scratch = nullptr);

  /// The idle-RM reference run for a workload. The reference stays valid for
  /// the runner's lifetime.
  [[nodiscard]] const RunResult& idle_reference(const workload::WorkloadMix& mix,
                                                RunScratch* scratch = nullptr);

  [[nodiscard]] const workload::SimDb& db() const noexcept { return *db_; }

 private:
  const workload::SimDb* db_;
  IntervalSimulator sim_;
  std::map<std::string, RunResult> idle_cache_;
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
