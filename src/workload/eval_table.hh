// Materialized evaluation layer (paper Section IV-A).
//
// The paper runs Sniper+McPAT once per (phase, core configuration, VF
// setting, LLC allocation) and the RM simulator replays applications against
// the stored results. EvalTable is that materialization: at build time it
// densely evaluates the ground-truth analytical models over the full finite
// (core size x VF point x way) grid of every characterized phase - plus the
// baseline-time, MPKI and MLP aggregates the QoS check and the classifier
// ask for on every query - so the hot loops of the interval simulator and
// the QoS evaluator are array lookups instead of repeated
// evaluate_interval/memory_truth calls.
//
// Only the two scalars read once per simulated interval or per oracle
// probe are stored: the interval time and the total energy (16 B per
// cell). Everything else - the full IntervalTiming/IntervalEnergy structs,
// read once per counter snapshot - SimDb rebuilds on demand. Every stored
// value is produced by exactly the calls SimDb::timing()/energy() make, so
// lookups are bit-identical to direct evaluation (tests enforce this over
// the full grid).
#ifndef QOSRM_WORKLOAD_EVAL_TABLE_HH
#define QOSRM_WORKLOAD_EVAL_TABLE_HH

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
/// from one cell index computation (EvalTable::interval_cell).
struct IntervalCell {
  double total_seconds = 0.0;  ///< EvalTable::total_seconds
  double total_joules = 0.0;   ///< EvalTable::total_joules
  double baseline_time = 0.0;  ///< EvalTable::baseline_time of (app, phase)
  std::int64_t key = -1;       ///< EvalTable::interval_key
};

class EvalTable {
 public:
  EvalTable() = default;

  /// Densely evaluates timing/energy for every (app, phase) in `stats` over
  /// the full (core size x VF point x share x way) grid, keeping the time
  /// and energy columns, and precomputes the per-phase baseline times and
  /// per-app MPKI/MLP aggregates.
  EvalTable(const SpecSuite& suite, const arch::SystemConfig& system,
            const power::PowerModel& power,
            const std::vector<std::vector<PhaseStats>>& stats);

  // --- batched / scalar SoA accessors --------------------------------------
  // The dense grids keep the hot aggregates of each cell (total seconds,
  // total joules) as flat structure-of-arrays columns, so the interval
  // simulators' start-of-interval accounting, the QoS evaluator's t_act
  // sweep and the perfect model's oracle scans read one contiguous double
  // per query.

  /// Interval wall-clock time (IntervalTiming::total_seconds).
  [[nodiscard]] double total_seconds(int app, int phase, const Setting& s) const;
  /// Core + memory energy (IntervalEnergy::total_j()).
  [[nodiscard]] double total_joules(int app, int phase, const Setting& s) const;

  /// Contiguous w-row of interval wall-clock times at fixed (c, f_idx, b):
  /// element w-1 equals timing(app, phase, {c, f_idx, w, b}).total_seconds
  /// for w in [1, row.size()]. The batched form of a per-setting sweep over
  /// w. Rows are bw-major: all w-rows of one (c, f) block sit back to back
  /// in ascending b, so a b-sweep at fixed (c, f) streams contiguously too.
  [[nodiscard]] std::span<const double> total_seconds_row(int app, int phase,
                                                          arch::CoreSize c,
                                                          int f_idx,
                                                          int b = 1) const;
  // --- dense interval keys -------------------------------------------------
  // Every (app, phase, setting) cell of this table has a unique dense key in
  // [0, interval_key_space()), suitable for flat-array memoization of
  // per-cell decisions (rm::ResourceManager's interval-outcome memo).
  // Settings whose w clamps to the same grid cell share the key - and, by
  // construction, every stored value.

  /// Dense key of the (app, phase, setting) grid cell.
  [[nodiscard]] std::int64_t interval_key(int app, int phase,
                                          const Setting& s) const;
  /// One past the largest key this table can produce.
  [[nodiscard]] std::int64_t interval_key_space() const noexcept {
    return key_space_;
  }

  /// Interval wall-clock time at the baseline setting (the QoS reference).
  [[nodiscard]] double baseline_time(int app, int phase) const;

  /// total_seconds, total_joules, baseline_time and interval_key of one
  /// cell, bit for bit, through a single grid lookup and index computation.
  [[nodiscard]] IntervalCell interval_cell(int app, int phase,
                                           const Setting& s) const;

  /// Weighted-average MPKI of an application at allocation w (phase weights).
  [[nodiscard]] double app_mpki(int app, int w) const;

  /// Weighted-average ground-truth MLP of an application at (c, baseline w).
  [[nodiscard]] double app_mlp(int app, arch::CoreSize c) const;

  [[nodiscard]] bool empty() const noexcept { return grids_.empty(); }

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

  [[nodiscard]] const PhaseGrid& grid(int app, int phase) const;
  [[nodiscard]] static std::size_t flat_index(const PhaseGrid& g, const Setting& s);
  /// Flat offset of the contiguous w-row at (c, f_idx, b).
  [[nodiscard]] static std::size_t row_offset(const PhaseGrid& g,
                                              arch::CoreSize c, int f_idx,
                                              int b);

  std::vector<std::vector<PhaseGrid>> grids_;  // [app][phase]
  std::vector<AppAggregates> aggregates_;      // [app]
  std::int64_t key_space_ = 0;                 // total cells across all grids
};

// The cell and row reads run once per simulated interval, so they are
// defined here, where every caller can inline them.

inline const EvalTable::PhaseGrid& EvalTable::grid(int app, int phase) const {
  QOSRM_CHECK(app >= 0 && app < static_cast<int>(grids_.size()));
  const auto& per_app = grids_[static_cast<std::size_t>(app)];
  QOSRM_CHECK(phase >= 0 && phase < static_cast<int>(per_app.size()));
  return per_app[static_cast<std::size_t>(phase)];
}

inline std::size_t EvalTable::flat_index(const PhaseGrid& g, const Setting& s) {
  // Ways and shares clamp like PhaseStats accessors do; c and f are hard
  // grid bounds.
  const int w = std::clamp(s.w, 1, g.max_ways);
  const int b = std::clamp(s.b, g.min_shares, g.min_shares + g.num_shares - 1);
  QOSRM_CHECK(s.f_idx >= 0 && s.f_idx < arch::VfTable::kNumPoints);
  const auto c_idx = static_cast<std::size_t>(arch::core_size_index(s.c));
  return ((c_idx * static_cast<std::size_t>(arch::VfTable::kNumPoints) +
           static_cast<std::size_t>(s.f_idx)) *
              static_cast<std::size_t>(g.num_shares) +
          static_cast<std::size_t>(b - g.min_shares)) *
             static_cast<std::size_t>(g.max_ways) +
         static_cast<std::size_t>(w - 1);
}

inline std::size_t EvalTable::row_offset(const PhaseGrid& g, arch::CoreSize c,
                                         int f_idx, int b) {
  QOSRM_CHECK(f_idx >= 0 && f_idx < arch::VfTable::kNumPoints);
  const int bc = std::clamp(b, g.min_shares, g.min_shares + g.num_shares - 1);
  const auto c_idx = static_cast<std::size_t>(arch::core_size_index(c));
  return ((c_idx * static_cast<std::size_t>(arch::VfTable::kNumPoints) +
           static_cast<std::size_t>(f_idx)) *
              static_cast<std::size_t>(g.num_shares) +
          static_cast<std::size_t>(bc - g.min_shares)) *
         static_cast<std::size_t>(g.max_ways);
}

inline double EvalTable::total_seconds(int app, int phase, const Setting& s) const {
  const PhaseGrid& g = grid(app, phase);
  return g.total_s[flat_index(g, s)];
}

inline double EvalTable::total_joules(int app, int phase, const Setting& s) const {
  const PhaseGrid& g = grid(app, phase);
  return g.total_j[flat_index(g, s)];
}

inline std::span<const double> EvalTable::total_seconds_row(int app, int phase,
                                                            arch::CoreSize c,
                                                            int f_idx,
                                                            int b) const {
  const PhaseGrid& g = grid(app, phase);
  return {g.total_s.data() + row_offset(g, c, f_idx, b),
          static_cast<std::size_t>(g.max_ways)};
}

inline std::int64_t EvalTable::interval_key(int app, int phase,
                                            const Setting& s) const {
  const PhaseGrid& g = grid(app, phase);
  return g.key_off + static_cast<std::int64_t>(flat_index(g, s));
}

inline double EvalTable::baseline_time(int app, int phase) const {
  return grid(app, phase).baseline_time_s;
}

inline IntervalCell EvalTable::interval_cell(int app, int phase,
                                              const Setting& s) const {
  const PhaseGrid& g = grid(app, phase);
  const std::size_t i = flat_index(g, s);
  return {g.total_s[i], g.total_j[i], g.baseline_time_s,
          g.key_off + static_cast<std::int64_t>(i)};
}

}  // namespace qosrm::workload

#endif  // QOSRM_WORKLOAD_EVAL_TABLE_HH
