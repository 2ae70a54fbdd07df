// Builds the hardware-counter snapshot a core would hand to the RM after
// executing one interval of a given phase at a given setting, from the
// simulation database (the "HW perf. counters" + ATD boxes of paper Fig. 3).
#ifndef QOSRM_RMSIM_SNAPSHOT_HH
#define QOSRM_RMSIM_SNAPSHOT_HH

#include <cstdint>

#include "rm/counters.hh"
#include "workload/sim_db.hh"

namespace qosrm::rmsim {

/// Snapshot of (app, phase) executed at `current`, counters filled. If
/// `oracle_phase` >= 0 the oracle block is filled with (db, app,
/// oracle_phase) so the perfect model can look up the upcoming interval
/// (paper Fig. 9). Its ATD curves are views of `db`'s phase statistics, so
/// the snapshot must not outlive `db`.
[[nodiscard]] rm::CounterSnapshot make_snapshot(const workload::SimDb& db, int app,
                                                int phase,
                                                const workload::Setting& current,
                                                int oracle_phase = -1);

/// Key-only refresh: stamps `current`, `oracle`, the cell's key and its
/// source cell (db, app, phase) into `out` and marks it key_only. No counter
/// is computed; a reader of more than the key fills them with
/// rm::fill_counters (the RM does so in its own workspace, only on the paths
/// that read counters). The interval simulator owns one snapshot per core
/// and refreshes it through this at every boundary. `out` must not outlive
/// `db`.
void make_snapshot_into(const workload::SimDb& db, int app, int phase,
                        const workload::Setting& current, int oracle_phase,
                        rm::CounterSnapshot& out);

/// The same refresh with the cell's key already known: `key` must equal
/// db.interval_key(app, phase, current), e.g. the key the interval's frozen
/// cell read returned (workload::SimDb::interval_cell).
void make_snapshot_into(const workload::SimDb& db, int app, int phase,
                        const workload::Setting& current, int oracle_phase,
                        std::int64_t key, rm::CounterSnapshot& out);

}  // namespace qosrm::rmsim

#endif  // QOSRM_RMSIM_SNAPSHOT_HH
