// The simulation database (paper Section IV-A).
//
// The paper runs Sniper+McPAT once per (phase, core configuration, VF
// setting, LLC allocation) and stores the results; the RM simulator then
// replays applications against that database. SimDb mirrors that split:
//
//   * characterization - one PhaseStats per (app, phase), produced by the
//     trace-driven cache substrate (the expensive part, parallel build);
//   * materialized results - the ground-truth interval time and total energy
//     of every cell of the full finite (core size x VF point x share x way)
//     grid, stored as flat per-phase columns, plus the baseline-time, MPKI
//     and MLP aggregates the QoS check and the classifier ask for, so the
//     per-interval queries are array lookups. The full timing()/energy()
//     structs are evaluated on demand, and the grid fill calls the same
//     per-cell functions, so every stored scalar equals the field of the
//     struct they return, bit for bit.
//
// The characterization is serializable: workload/db_io.hh saves it to a
// versioned binary snapshot and restores it in milliseconds (the grids are
// rebuilt deterministically from the restored stats).
#ifndef QOSRM_WORKLOAD_SIM_DB_HH
#define QOSRM_WORKLOAD_SIM_DB_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "arch/core_config.hh"
#include "arch/core_model.hh"
#include "arch/dvfs.hh"
#include "arch/system_config.hh"
#include "common/check.hh"
#include "power/power_model.hh"
#include "workload/phase_stats.hh"
#include "workload/spec_suite.hh"

namespace qosrm::workload {

/// A concrete resource setting for one core: the full multi-resource
/// allocation vector (core size, VF point, LLC ways, memory-bandwidth
/// shares). `b` defaults to the degenerate single share, so ways-only code
/// paths and literals keep their pre-CBP meaning.
struct Setting {
  arch::CoreSize c = arch::kBaselineCoreSize;
  int f_idx = arch::VfTable::kBaselineIndex;
  int w = 8;
  int b = 1;  ///< granted memory-bandwidth shares

  [[nodiscard]] bool operator==(const Setting&) const = default;
};

/// The baseline system setting (M core, 2 GHz, even LLC split).
[[nodiscard]] Setting baseline_setting(const arch::SystemConfig& system);

/// Everything a started interval reads of its (app, phase, setting) cell,
/// from one cell index computation (SimDb::interval_cell).
struct IntervalCell {
  double total_seconds = 0.0;  ///< SimDb::total_seconds
  double total_joules = 0.0;   ///< SimDb::total_joules
  double baseline_time = 0.0;  ///< SimDb::baseline_time of (app, phase)
  std::int64_t key = -1;       ///< SimDb::interval_key
};

struct SimDbOptions {
  PhaseStatsOptions phase{};
  /// Build parallelism: 1 is serial; otherwise pool_threads(threads, jobs)
  /// + 1 lanes, where 0 means hardware concurrency. The result is
  /// bit-identical for any value.
  int threads = 0;
};

/// Characterizes every phase of every suite application, [app][phase]; a
/// parallel build, bit-identical for any options.threads and lane width
/// (characterize_phase).
[[nodiscard]] std::vector<std::vector<PhaseStats>> characterize_suite(
    const SpecSuite& suite, const CharacterizationSystem& system,
    const SimDbOptions& options, int lane_width = simd::lane_width());

class SimDb {
 public:
  /// Characterizes the suite (characterize_suite), then fills the grids.
  SimDb(const SpecSuite& suite, const arch::SystemConfig& system,
        const power::PowerModel& power, const SimDbOptions& options = {});

  /// Restores a database from an already-computed characterization (snapshot
  /// load path; see workload/db_io.hh). Only the grids are rebuilt.
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

  /// Ground-truth interval timing of (app, phase) at setting s, evaluated on
  /// demand (w and b clamp to the grid like the stored reads do).
  [[nodiscard]] arch::IntervalTiming timing(int app, int phase,
                                            const Setting& s) const;

  /// Ground-truth interval energy (core + memory; uncore is system-level),
  /// evaluated on demand like timing().
  [[nodiscard]] power::IntervalEnergy energy(int app, int phase,
                                             const Setting& s) const;
  /// energy() on a timing(app, phase, s) the caller already built.
  [[nodiscard]] power::IntervalEnergy energy(int app, int phase, const Setting& s,
                                             const arch::IntervalTiming& t) const;

  // --- stored reads ----------------------------------------------------------
  // Each (app, phase) grid keeps the interval time and the total energy of
  // every cell as flat structure-of-arrays columns (16 B per cell), so the
  // interval simulators' start-of-interval accounting, the QoS evaluator's
  // t_act sweep and the perfect model's oracle scans read one contiguous
  // double per query. These reads run once per simulated interval, so they
  // are defined inline below.

  /// timing(...).total_seconds without the struct.
  [[nodiscard]] double total_seconds(int app, int phase, const Setting& s) const;

  /// timing(...).mem_seconds (evaluated on demand).
  [[nodiscard]] double mem_seconds(int app, int phase, const Setting& s) const {
    return timing(app, phase, s).mem_seconds;
  }

  /// energy(...).total_j() without the struct.
  [[nodiscard]] double total_joules(int app, int phase, const Setting& s) const;

  /// Contiguous w-row of interval wall-clock times at fixed (c, f_idx, b):
  /// element w-1 is timing(app, phase, {c, f_idx, w, b}).total_seconds for w
  /// in [1, row.size()]. Rows are bw-major: all w-rows of one (c, f) block
  /// sit back to back in ascending b, so a b-sweep at fixed (c, f) streams
  /// contiguously too.
  [[nodiscard]] std::span<const double> total_seconds_row(int app, int phase,
                                                          arch::CoreSize c,
                                                          int f_idx,
                                                          int b = 1) const;

  /// Dense key of the (app, phase, setting) grid cell, unique in
  /// [0, interval_key_space()) and suitable for flat-array memoization of
  /// per-cell decisions (rm::ResourceManager's interval-outcome memo).
  /// Settings whose w or b clamps to the same cell share its key - and every
  /// stored value.
  [[nodiscard]] std::int64_t interval_key(int app, int phase,
                                          const Setting& s) const;
  /// One past the largest interval_key() this database can produce.
  [[nodiscard]] std::int64_t interval_key_space() const noexcept {
    return key_space_;
  }

  /// Interval wall-clock time at the baseline setting (the QoS reference).
  [[nodiscard]] double baseline_time(int app, int phase) const;

  /// total_seconds, total_joules, baseline_time and interval_key of one
  /// cell, bit for bit, through a single grid lookup and index computation
  /// (what a started interval reads).
  [[nodiscard]] IntervalCell interval_cell(int app, int phase,
                                           const Setting& s) const;

  /// Weighted-average MPKI of an application at allocation w (phase weights).
  [[nodiscard]] double app_mpki(int app, int w) const;

  /// Weighted-average ground-truth MLP of an application at (c, baseline w).
  [[nodiscard]] double app_mlp(int app, arch::CoreSize c) const;

 private:
  /// Dense per-phase grid, [c][f][b][w-1] flattened row-major (bw-major
  /// w-rows: the w axis stays innermost and contiguous; the share axis sits
  /// directly above it). The share axis covers [min_shares, max_shares] of
  /// the system's BwConfig and has exactly one point in the degenerate
  /// default, where the layout (and every stored byte) is identical to the
  /// pre-CBP [c][f][w-1] grid.
  struct PhaseGrid {
    int max_ways = 0;
    int min_shares = 1;    ///< lowest share the b axis covers
    int num_shares = 1;    ///< extent of the b axis
    double baseline_time_s = 0.0;
    std::int64_t key_off = 0;  ///< cumulative cell offset (interval keys)
    std::vector<double> total_s;
    std::vector<double> total_j;
  };

  struct AppAggregates {
    std::vector<double> mpki;  ///< [w-1]
    std::array<double, arch::kNumCoreSizes> mlp{};
  };

  /// The per-cell formulas behind timing(), energy() and the grid fill.
  [[nodiscard]] arch::IntervalTiming timing(const PhaseStats& st,
                                            const Setting& s) const;
  [[nodiscard]] power::IntervalEnergy energy(const PhaseStats& st, const Setting& s,
                                             const arch::IntervalTiming& t) const;

  [[nodiscard]] const PhaseGrid& grid(int app, int phase) const;
  /// Flat offset of the contiguous w-row at (c, f_idx, b).
  [[nodiscard]] static std::size_t row_offset(const PhaseGrid& g,
                                              arch::CoreSize c, int f_idx, int b);
  [[nodiscard]] static std::size_t flat_index(const PhaseGrid& g, const Setting& s);

  const SpecSuite* suite_;
  arch::SystemConfig system_;
  power::PowerModel power_;
  PhaseStatsOptions phase_opts_;
  std::vector<std::vector<PhaseStats>> stats_;  // [app][phase]
  std::vector<std::vector<PhaseGrid>> grids_;   // [app][phase]
  std::vector<AppAggregates> aggregates_;       // [app]
  std::int64_t key_space_ = 0;                  // total cells across all grids
};

inline const SimDb::PhaseGrid& SimDb::grid(int app, int phase) const {
  QOSRM_CHECK(app >= 0 && app < static_cast<int>(grids_.size()));
  const auto& per_app = grids_[static_cast<std::size_t>(app)];
  QOSRM_CHECK(phase >= 0 && phase < static_cast<int>(per_app.size()));
  return per_app[static_cast<std::size_t>(phase)];
}

inline std::size_t SimDb::row_offset(const PhaseGrid& g, arch::CoreSize c,
                                     int f_idx, int b) {
  // Shares clamp like PhaseStats accessors do; c and f are hard grid bounds.
  QOSRM_CHECK(f_idx >= 0 && f_idx < arch::VfTable::kNumPoints);
  const int bc = std::clamp(b, g.min_shares, g.min_shares + g.num_shares - 1);
  const auto c_idx = static_cast<std::size_t>(arch::core_size_index(c));
  return ((c_idx * static_cast<std::size_t>(arch::VfTable::kNumPoints) +
           static_cast<std::size_t>(f_idx)) *
              static_cast<std::size_t>(g.num_shares) +
          static_cast<std::size_t>(bc - g.min_shares)) *
         static_cast<std::size_t>(g.max_ways);
}

inline std::size_t SimDb::flat_index(const PhaseGrid& g, const Setting& s) {
  // Ways clamp like shares do.
  return row_offset(g, s.c, s.f_idx, s.b) +
         static_cast<std::size_t>(std::clamp(s.w, 1, g.max_ways) - 1);
}

inline double SimDb::total_seconds(int app, int phase, const Setting& s) const {
  const PhaseGrid& g = grid(app, phase);
  return g.total_s[flat_index(g, s)];
}

inline double SimDb::total_joules(int app, int phase, const Setting& s) const {
  const PhaseGrid& g = grid(app, phase);
  return g.total_j[flat_index(g, s)];
}

inline std::span<const double> SimDb::total_seconds_row(int app, int phase,
                                                        arch::CoreSize c,
                                                        int f_idx, int b) const {
  const PhaseGrid& g = grid(app, phase);
  return {g.total_s.data() + row_offset(g, c, f_idx, b),
          static_cast<std::size_t>(g.max_ways)};
}

inline std::int64_t SimDb::interval_key(int app, int phase,
                                        const Setting& s) const {
  const PhaseGrid& g = grid(app, phase);
  return g.key_off + static_cast<std::int64_t>(flat_index(g, s));
}

inline double SimDb::baseline_time(int app, int phase) const {
  return grid(app, phase).baseline_time_s;
}

inline IntervalCell SimDb::interval_cell(int app, int phase,
                                          const Setting& s) const {
  const PhaseGrid& g = grid(app, phase);
  const std::size_t i = flat_index(g, s);
  return {g.total_s[i], g.total_j[i], g.baseline_time_s,
          g.key_off + static_cast<std::int64_t>(i)};
}

}  // namespace qosrm::workload

#endif  // QOSRM_WORKLOAD_SIM_DB_HH
