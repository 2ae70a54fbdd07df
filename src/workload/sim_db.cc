#include "workload/sim_db.hh"

#include <algorithm>
#include <utility>

#include "common/check.hh"
#include "common/thread_pool.hh"

namespace qosrm::workload {

SimDb::SimDb(const SpecSuite& suite, const arch::SystemConfig& system,
             const power::PowerModel& power, const SimDbOptions& options)
    : suite_(&suite), system_(system), power_(power), phase_opts_(options.phase) {
  stats_.resize(static_cast<std::size_t>(suite.size()));

  // Flatten (app, phase) pairs for the parallel sweep.
  std::vector<std::pair<int, int>> jobs;
  for (int a = 0; a < suite.size(); ++a) {
    const auto n = static_cast<std::size_t>(suite.app(a).num_phases());
    stats_[static_cast<std::size_t>(a)].resize(n);
    for (std::size_t ph = 0; ph < n; ++ph) {
      jobs.emplace_back(a, static_cast<int>(ph));
    }
  }

  const PhaseStatsOptions phase_opts = options.phase;
  auto run_job = [&](std::size_t j) {
    const auto [a, ph] = jobs[j];
    const AppProfile& app = suite.app(a);
    const std::uint64_t seed =
        app.trace_seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(ph + 1);
    stats_[static_cast<std::size_t>(a)][static_cast<std::size_t>(ph)] =
        characterize_phase(app.phases[static_cast<std::size_t>(ph)], system_,
                           phase_opts, seed);
  };

  // threads = 1 is serial; otherwise one lane more than a sweep with the
  // same --threads runs. perfbench's setup_s is baselined on that count.
  const std::size_t lanes =
      options.threads == 1 ? 1 : pool_threads(options.threads, jobs.size()) + 1;
  parallel_for(lanes, jobs.size(), run_job);

  table_ = EvalTable(suite, system_, power_, stats_);
}

SimDb::SimDb(const SpecSuite& suite, const arch::SystemConfig& system,
             const power::PowerModel& power, const PhaseStatsOptions& phase_options,
             std::vector<std::vector<PhaseStats>> stats)
    : suite_(&suite),
      system_(system),
      power_(power),
      phase_opts_(phase_options),
      stats_(std::move(stats)) {
  QOSRM_CHECK(static_cast<int>(stats_.size()) == suite.size());
  for (int a = 0; a < suite.size(); ++a) {
    QOSRM_CHECK(static_cast<int>(stats_[static_cast<std::size_t>(a)].size()) ==
                suite.app(a).num_phases());
  }
  table_ = EvalTable(suite, system_, power_, stats_);
}

const PhaseStats& SimDb::stats(int app, int phase) const {
  QOSRM_CHECK(app >= 0 && app < suite_->size());
  const auto& per_app = stats_[static_cast<std::size_t>(app)];
  QOSRM_CHECK(phase >= 0 && phase < static_cast<int>(per_app.size()));
  return per_app[static_cast<std::size_t>(phase)];
}

arch::IntervalTiming SimDb::timing(int app, int phase, const Setting& s) const {
  const PhaseStats& st = stats(app, phase);
  QOSRM_CHECK(s.f_idx >= 0 && s.f_idx < arch::VfTable::kNumPoints);
  const int w = std::clamp(s.w, 1, st.max_ways());
  const int b = std::clamp(s.b, system_.bw.min_shares, system_.bw.max_shares);
  const double l_eff =
      system_.mem_latency_s * arch::bw_latency_scale(system_.bw, b);
  return arch::evaluate_interval(st.characteristics(),
                                 st.memory_truth(s.c, w, l_eff), s.c,
                                 arch::VfTable::frequency_hz(s.f_idx));
}

power::IntervalEnergy SimDb::energy(int app, int phase, const Setting& s) const {
  const PhaseStats& st = stats(app, phase);
  const int w = std::clamp(s.w, 1, st.max_ways());
  return power_.interval_energy(s.c, arch::VfTable::point(s.f_idx),
                                timing(app, phase, s), st.interval_instructions,
                                st.dram_accesses(w));
}

int SimDb::num_phases(int app) const {
  QOSRM_CHECK(app >= 0 && app < suite_->size());
  return static_cast<int>(stats_[static_cast<std::size_t>(app)].size());
}

}  // namespace qosrm::workload
