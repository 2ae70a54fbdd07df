#include "rmsim/snapshot.hh"

namespace qosrm::rmsim {

rm::CounterSnapshot make_snapshot(const workload::SimDb& db, int app, int phase,
                                  const workload::Setting& current,
                                  int oracle_phase) {
  rm::CounterSnapshot snap;
  make_snapshot_into(db, app, phase, current, oracle_phase, snap);
  rm::fill_counters(snap);
  return snap;
}

}  // namespace qosrm::rmsim
