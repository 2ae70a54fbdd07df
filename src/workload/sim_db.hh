// The simulation database (paper Section IV-A).
//
// The paper runs Sniper+McPAT once per (phase, core configuration, VF
// setting, LLC allocation) and stores the results; the RM simulator then
// replays applications against that database. SimDb mirrors that split:
//
//   * characterization - one PhaseStats per (app, phase), produced by the
//     trace-driven cache substrate (the expensive part, parallel build);
//   * materialized evaluation - an EvalTable holding the interval time and
//     total energy densely precomputed over the full finite
//     (core size x VF point x share x way) grid, plus baseline-time/MPKI/MLP
//     aggregates, so the per-interval queries are array lookups; the full
//     timing()/energy() structs are rebuilt on demand.
//
// The characterization is serializable: workload/db_io.hh saves it to a
// versioned binary snapshot and restores it in milliseconds (the table is
// rebuilt deterministically from the restored stats).
#ifndef QOSRM_WORKLOAD_SIM_DB_HH
#define QOSRM_WORKLOAD_SIM_DB_HH

#include <cstdint>
#include <vector>

#include "arch/core_model.hh"
#include "arch/dvfs.hh"
#include "arch/system_config.hh"
#include "power/power_model.hh"
#include "workload/eval_table.hh"
#include "workload/phase_stats.hh"
#include "workload/spec_suite.hh"

namespace qosrm::workload {

struct SimDbOptions {
  PhaseStatsOptions phase{};
  /// Build parallelism: 1 is serial; otherwise pool_threads(threads, jobs)
  /// + 1 lanes, where 0 means hardware concurrency. The result is
  /// bit-identical for any value.
  int threads = 0;
};

class SimDb {
 public:
  /// Characterizes every phase of every suite application (parallel build),
  /// then materializes the evaluation table.
  SimDb(const SpecSuite& suite, const arch::SystemConfig& system,
        const power::PowerModel& power, const SimDbOptions& options = {});

  /// Restores a database from an already-computed characterization (snapshot
  /// load path; see workload/db_io.hh). Only the evaluation table is rebuilt.
  SimDb(const SpecSuite& suite, const arch::SystemConfig& system,
        const power::PowerModel& power, const PhaseStatsOptions& phase_options,
        std::vector<std::vector<PhaseStats>> stats);

  [[nodiscard]] const SpecSuite& suite() const noexcept { return *suite_; }
  [[nodiscard]] const arch::SystemConfig& system() const noexcept { return system_; }
  [[nodiscard]] const power::PowerModel& power() const noexcept { return power_; }
  [[nodiscard]] const PhaseStatsOptions& phase_options() const noexcept {
    return phase_opts_;
  }

  [[nodiscard]] const PhaseStats& stats(int app, int phase) const;
  [[nodiscard]] int num_phases(int app) const;

  /// Ground-truth interval timing of (app, phase) at setting s, rebuilt on
  /// demand with the evaluation table's exact calls (w and b clamp to the
  /// grid like the table lookups do).
  [[nodiscard]] arch::IntervalTiming timing(int app, int phase,
                                            const Setting& s) const;

  /// Ground-truth interval energy (core + memory; uncore is system-level),
  /// rebuilt on demand like timing().
  [[nodiscard]] power::IntervalEnergy energy(int app, int phase,
                                             const Setting& s) const;

  /// timing(...).total_seconds without the struct copy (SoA lookup).
  [[nodiscard]] double total_seconds(int app, int phase, const Setting& s) const {
    return table_.total_seconds(app, phase, s);
  }

  /// timing(...).mem_seconds (rebuilt on demand).
  [[nodiscard]] double mem_seconds(int app, int phase, const Setting& s) const {
    return timing(app, phase, s).mem_seconds;
  }

  /// energy(...).total_j() without the struct copy (SoA lookup).
  [[nodiscard]] double total_joules(int app, int phase, const Setting& s) const {
    return table_.total_joules(app, phase, s);
  }

  /// Contiguous w-row of interval wall-clock times at fixed (c, f_idx, b);
  /// element w-1 is timing(app, phase, {c, f_idx, w, b}).total_seconds.
  [[nodiscard]] std::span<const double> total_seconds_row(int app, int phase,
                                                          arch::CoreSize c,
                                                          int f_idx,
                                                          int b = 1) const {
    return table_.total_seconds_row(app, phase, c, f_idx, b);
  }

  /// Dense memo key of the (app, phase, setting) evaluation cell.
  [[nodiscard]] std::int64_t interval_key(int app, int phase,
                                          const Setting& s) const {
    return table_.interval_key(app, phase, s);
  }

  /// One past the largest interval_key() this database can produce.
  [[nodiscard]] std::int64_t interval_key_space() const noexcept {
    return table_.interval_key_space();
  }

  /// Interval wall-clock time at the baseline setting (the QoS reference).
  [[nodiscard]] double baseline_time(int app, int phase) const {
    return table_.baseline_time(app, phase);
  }

  /// Weighted-average MPKI of an application at allocation w (phase weights).
  [[nodiscard]] double app_mpki(int app, int w) const {
    return table_.app_mpki(app, w);
  }

  /// Weighted-average ground-truth MLP of an application at (c, baseline w).
  [[nodiscard]] double app_mlp(int app, arch::CoreSize c) const {
    return table_.app_mlp(app, c);
  }

 private:
  const SpecSuite* suite_;
  arch::SystemConfig system_;
  power::PowerModel power_;
  PhaseStatsOptions phase_opts_;
  std::vector<std::vector<PhaseStats>> stats_;  // [app][phase]
  EvalTable table_;
};

}  // namespace qosrm::workload

#endif  // QOSRM_WORKLOAD_SIM_DB_HH
