#include "rmsim/experiment.hh"

#include "common/check.hh"
#include "workload/classify.hh"

namespace qosrm::rmsim {

ExperimentRunner::ExperimentRunner(const workload::SimDb& db, const SimOptions& sim)
    : db_(&db), sim_(db, sim) {}

RunResult run_idle_reference(const IntervalSimulator& sim,
                             const workload::WorkloadMix& mix,
                             RunScratch* scratch) {
  rm::RmConfig idle;
  idle.policy = rm::RmPolicy::Idle;
  return sim.run(mix, idle, {}, scratch);
}

SavingsResult run_against_idle(const IntervalSimulator& sim,
                               const workload::WorkloadMix& mix,
                               const rm::RmConfig& config, const RunResult& idle,
                               RunScratch* scratch) {
  SavingsResult result;
  if (config.policy == rm::RmPolicy::Idle) {
    result.run = idle;
    result.run.model = config.model;
    return result;
  }
  result.run = sim.run(mix, config, {}, scratch);
  result.savings = energy_savings(result.run, idle);
  return result;
}

const RunResult& ExperimentRunner::idle_reference(const workload::WorkloadMix& mix,
                                                  RunScratch* scratch) {
  auto it = idle_cache_.find(mix.name);
  if (it == idle_cache_.end()) {
    it = idle_cache_.emplace(mix.name, run_idle_reference(sim_, mix, scratch)).first;
  }
  return it->second;
}

SavingsResult ExperimentRunner::run(const workload::WorkloadMix& mix,
                                    const rm::RmConfig& config,
                                    RunScratch* scratch) {
  return run_against_idle(sim_, mix, config, idle_reference(mix, scratch), scratch);
}

std::array<double, 4> scenario_weights(const workload::SpecSuite& suite) {
  std::array<int, workload::kNumCategories> population{};
  for (int c = 0; c < workload::kNumCategories; ++c) {
    population[static_cast<std::size_t>(c)] = static_cast<int>(
        suite.apps_in_category(static_cast<workload::Category>(c)).size());
  }
  return workload::compute_mix_table(population).scenario_weight;
}

double weighted_average_savings(
    const std::vector<workload::Scenario>& scenario_of_row,
    const std::vector<double>& savings, const std::array<double, 4>& weights) {
  QOSRM_CHECK(scenario_of_row.size() == savings.size());
  std::array<double, 4> sum{};
  std::array<int, 4> count{};
  for (std::size_t i = 0; i < savings.size(); ++i) {
    const auto s = static_cast<std::size_t>(
        static_cast<int>(scenario_of_row[i]) - 1);
    sum[s] += savings[i];
    ++count[s];
  }
  double total = 0.0;
  double weight_used = 0.0;
  for (std::size_t s = 0; s < 4; ++s) {
    if (count[s] == 0) continue;
    total += weights[s] * sum[s] / static_cast<double>(count[s]);
    weight_used += weights[s];
  }
  return weight_used > 0.0 ? total / weight_used : 0.0;
}

}  // namespace qosrm::rmsim
