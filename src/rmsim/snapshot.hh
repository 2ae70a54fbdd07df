// Builds the hardware-counter snapshot a core would hand to the RM after
// executing one interval of a given phase at a given setting, from the
// simulation database (the "HW perf. counters" + ATD boxes of paper Fig. 3).
#ifndef QOSRM_RMSIM_SNAPSHOT_HH
#define QOSRM_RMSIM_SNAPSHOT_HH

#include "rm/counters.hh"
#include "workload/sim_db.hh"

namespace qosrm::rmsim {

/// Snapshot of (app, phase) executed at `current`. If `oracle_phase` >= 0 the
/// oracle block is filled with (db, app, oracle_phase) so the perfect model
/// can look up the upcoming interval (paper Fig. 9). Its ATD curves are
/// views of `db`'s phase statistics, so the snapshot must not outlive `db`.
[[nodiscard]] rm::CounterSnapshot make_snapshot(const workload::SimDb& db, int app,
                                                int phase,
                                                const workload::Setting& current,
                                                int oracle_phase = -1);

/// Allocation-free variant: overwrites every field of `out` and points its
/// ATD curves at `db`'s phase statistics (no curve is copied). The interval
/// simulator owns one snapshot per core and refreshes it through this at
/// every boundary, so the steady state copies scalar counter values only. A refresh of the cell `out`
/// already holds (same database, same interval key, equal `current`) only
/// restamps `oracle`: every other field would be rewritten with its own
/// value. A caller that reuses `out` across databases that may share an
/// address clears `out.memo_db` first.
void make_snapshot_into(const workload::SimDb& db, int app, int phase,
                        const workload::Setting& current, int oracle_phase,
                        rm::CounterSnapshot& out);

}  // namespace qosrm::rmsim

#endif  // QOSRM_RMSIM_SNAPSHOT_HH
