#include "rmsim/interval_sim.hh"

#include <algorithm>
#include <optional>

#include "common/check.hh"

namespace qosrm::rmsim {

double RunResult::total_energy_j() const noexcept {
  double e = uncore_energy_j;
  for (const CoreResult& c : cores) e += c.counted_energy_j;
  return e;
}

std::uint64_t RunResult::total_intervals() const noexcept {
  std::uint64_t n = 0;
  for (const CoreResult& c : cores) n += c.intervals;
  return n;
}

std::uint64_t RunResult::total_violations() const noexcept {
  std::uint64_t n = 0;
  for (const CoreResult& c : cores) n += c.qos_violations;
  return n;
}

double RunResult::violation_rate() const noexcept {
  const std::uint64_t n = total_intervals();
  return n == 0 ? 0.0
                : static_cast<double>(total_violations()) / static_cast<double>(n);
}

IntervalSimulator::IntervalSimulator(const workload::SimDb& db,
                                     const SimOptions& options)
    : db_(&db), opt_(options) {}

RunResult IntervalSimulator::run(const workload::WorkloadMix& mix,
                                 const rm::RmConfig& rm_config,
                                 const IntervalObserver& observer,
                                 RunScratch* scratch, rm::OutcomeMemo* memo) const {
  const workload::SimDb& db = *db_;
  arch::SystemConfig sys = db.system();
  if (opt_.qos_alpha_override > 0.0) sys.qos_alpha = opt_.qos_alpha_override;
  QOSRM_CHECK(static_cast<int>(mix.app_ids.size()) == sys.cores);

  // Instruction bound: the longest application in the mix (paper: 4146B, the
  // longest SPEC app; every application restarts until it has run that much).
  double bound = 0.0;
  for (const int app : mix.app_ids) {
    bound = std::max(bound, static_cast<double>(db.suite().app(app).length_intervals()) *
                                sys.interval_instructions);
  }

  rm::ResourceManager manager(rm_config, sys, db.power(), memo);

  RunResult result;
  result.workload = mix.name;
  result.scenario = mix.scenario;
  result.policy = rm_config.policy;
  result.model = rm_config.model;
  result.cores.resize(static_cast<std::size_t>(sys.cores));

  // Fallback scratch, materialized only when the caller brings none (a
  // caller-supplied scratch keeps the run free of even this allocation).
  std::optional<RunScratch> local;
  if (scratch == nullptr) scratch = &local.emplace();
  IntervalKernel& kernel = *scratch;
  kernel.bind(db, opt_, manager);

  // The closed mix: every app seated at t = 0, the whole machine in the RM
  // mask for the entire run. A core that reaches the bound simply stops; it
  // is never invoked or frozen again, but its last curve stays in the DP.
  for (int k = 0; k < sys.cores; ++k) {
    const int app = mix.app_ids[static_cast<std::size_t>(k)];
    result.cores[static_cast<std::size_t>(k)].app = app;
    kernel.seat(k, app);
    kernel.freeze(k, 0.0);
  }

  // Event loop: advance the earliest-completing interval (the "next global
  // event" of paper Fig. 5).
  for (int k = kernel.next_completion(); k >= 0; k = kernel.next_completion()) {
    CoreResult& cr = result.cores[static_cast<std::size_t>(k)];
    const IntervalOutcome done = kernel.finish(k);
    cr.executed_instructions += sys.interval_instructions;
    ++cr.intervals;
    cr.counted_energy_j += done.energy_j;
    if (done.violated) {
      ++cr.qos_violations;
      cr.violation_sum += done.violation;
      cr.violation_max = std::max(cr.violation_max, done.violation);
    }

    const CoreTimeline& st = kernel.core(k);
    if (observer) {
      observer({k, st.app, st.phase, st.setting, st.start_s, done.duration_s,
                done.energy_j});
    }
    if (cr.executed_instructions >= bound) {
      result.wall_time_s = std::max(result.wall_time_s, st.end_s);
      continue;
    }
    kernel.next_interval(k);
  }

  result.rm_invocations = kernel.rm_invocations();
  result.rm_ops = kernel.rm_ops();
  result.uncore_energy_j = db.power().uncore_power(sys.cores) * result.wall_time_s;
  return result;
}

double energy_savings(const RunResult& run, const RunResult& idle) {
  const double e_idle = idle.total_energy_j();
  QOSRM_CHECK(e_idle > 0.0);
  return 1.0 - run.total_energy_j() / e_idle;
}

}  // namespace qosrm::rmsim
