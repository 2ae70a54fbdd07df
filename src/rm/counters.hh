// The hardware-counter snapshot a core hands to the RM at an interval
// boundary (paper Fig. 3, "HW perf. counters" plus the ATD structures).
//
// Everything the online models may use is measured over the PAST interval at
// the CURRENT resource setting; nothing references ground truth of the
// upcoming interval. (The only exception is the optional `oracle` block,
// which exists solely to implement the paper's "perfect model" comparison
// point of Fig. 9.)
//
// A snapshot produced from the simulation database names its source cell
// (database, app, phase, `current`) and its dense key. A key-only refresh
// (rmsim::make_snapshot_into) stamps just that identity; fill_counters()
// turns it into the counters, and only readers of more than the key call
// it: the RM on a memo miss or a baseline refresh, or a model evaluation.
#ifndef QOSRM_RM_COUNTERS_HH
#define QOSRM_RM_COUNTERS_HH

#include <array>
#include <cstdint>
#include <span>

#include "arch/core_config.hh"
#include "power/energy_meter.hh"
#include "workload/sim_db.hh"

namespace qosrm::rm {

/// Oracle handle for the "perfect model": identifies the next interval's
/// phase in the simulation database. Null/absent in any realistic setup.
struct OracleRef {
  const workload::SimDb* db = nullptr;
  int app = -1;
  int phase = -1;

  [[nodiscard]] bool valid() const noexcept { return db != nullptr && app >= 0; }
};

struct CounterSnapshot {
  /// Setting the core ran with during the measured interval.
  workload::Setting current{};

  double instructions = 0.0;    ///< retired instructions
  double total_time_s = 0.0;    ///< measured interval wall time T_i
  double t_width_s = 0.0;       ///< dispatch-width-bound compute time (the
                                ///< part of T_0,i that scales with D; from
                                ///< issue-slot utilization counters)
  double t_ilp_s = 0.0;         ///< dependency-bound compute time (the rest
                                ///< of T_0,i; size-invariant)
  double t_branch_s = 0.0;      ///< branch-stall component T_BP,i
  double t_cache_s = 0.0;       ///< private-cache component T_Cache,i
  double t_mem_s = 0.0;         ///< measured memory stall time T_mem,i
  double llc_accesses = 0.0;    ///< LLC accesses observed
  double llc_misses = 0.0;      ///< misses at the current allocation
  double writebacks = 0.0;      ///< dirty evictions at the current allocation
  double measured_mlp = 1.0;    ///< M_i / LM_i at the current (c, w)

  /// ATD miss estimates per allocation w (index w-1, w in [1, max]). Like
  /// the leading-miss curves below, a view of the producing database's
  /// phase statistics (fill_counters): the snapshot must not outlive that
  /// database.
  std::span<const double> atd_misses;
  /// MLP-ATD leading-miss estimates per (core size, allocation).
  std::array<std::span<const double>, arch::kNumCoreSizes> atd_leading_misses;

  /// RAPL-like dynamic-power sample (paper Eq. 4's P*_CoreDyn, V*).
  power::PowerSample power_sample{};

  OracleRef oracle{};  ///< perfect-model hook (Fig. 9 only)

  /// Dense identity of the evaluation-grid cell these counters were measured
  /// at, stamped by the snapshot producer (rmsim::make_snapshot_into): the
  /// snapshot's contents are a pure function of (db, key), which lets the RM
  /// memoize per-interval local-optimization outcomes. A refresh of the
  /// snapshot restamps all three fields, so a memo keyed by them can never
  /// serve an outcome for counters that are no longer in the snapshot.
  /// memo_key < 0 (hand-built snapshots) disables memoization.
  std::int64_t memo_key = -1;
  std::int64_t memo_space = 0;                 ///< db.interval_key_space()
  const workload::SimDb* memo_db = nullptr;    ///< producing database
  /// Source cell in memo_db: the (app, phase) executed at `current`.
  int app = -1;
  int phase = -1;
  /// Set by a key-only refresh: every counter field above (`current` and
  /// `oracle` excepted) is unset until fill_counters() fills it. Reading
  /// one before then reads whatever an earlier fill left.
  bool key_only = false;

  [[nodiscard]] int max_ways() const noexcept {
    return static_cast<int>(atd_misses.size());
  }
  [[nodiscard]] double atd_misses_at(int w) const;
  [[nodiscard]] double atd_leading_at(arch::CoreSize c, int w) const;
};

/// Fills every counter field of a snapshot that names its source cell
/// (memo_db, app, phase, current) from that database's ground truth, as the
/// core's counters would have measured the interval, and clears key_only.
/// The ATD curves become views of the database's phase statistics, so the
/// snapshot must not outlive memo_db. Allocation-free.
void fill_counters(CounterSnapshot& snap);

inline double CounterSnapshot::atd_misses_at(int w) const {
  const int clamped = w < 1 ? 1 : (w > max_ways() ? max_ways() : w);
  return atd_misses[static_cast<std::size_t>(clamped - 1)];
}

inline double CounterSnapshot::atd_leading_at(arch::CoreSize c, int w) const {
  const auto& curve =
      atd_leading_misses[static_cast<std::size_t>(arch::core_size_index(c))];
  const int max_w = static_cast<int>(curve.size());
  const int clamped = w < 1 ? 1 : (w > max_w ? max_w : w);
  return curve[static_cast<std::size_t>(clamped - 1)];
}

}  // namespace qosrm::rm

#endif  // QOSRM_RM_COUNTERS_HH
