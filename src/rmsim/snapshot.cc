#include "rmsim/snapshot.hh"

namespace qosrm::rmsim {

void make_snapshot_into(const workload::SimDb& db, int app, int phase,
                        const workload::Setting& current, int oracle_phase,
                        std::int64_t key, rm::CounterSnapshot& out) {
  out.current = current;
  out.oracle = oracle_phase >= 0 ? rm::OracleRef{&db, app, oracle_phase}
                                 : rm::OracleRef{};
  out.memo_key = key;
  out.memo_space = db.interval_key_space();
  out.memo_db = &db;
  out.app = app;
  out.phase = phase;
  out.key_only = true;
}

void make_snapshot_into(const workload::SimDb& db, int app, int phase,
                        const workload::Setting& current, int oracle_phase,
                        rm::CounterSnapshot& out) {
  make_snapshot_into(db, app, phase, current, oracle_phase,
                     db.interval_key(app, phase, current), out);
}

rm::CounterSnapshot make_snapshot(const workload::SimDb& db, int app, int phase,
                                  const workload::Setting& current,
                                  int oracle_phase) {
  rm::CounterSnapshot snap;
  make_snapshot_into(db, app, phase, current, oracle_phase, snap);
  rm::fill_counters(snap);
  return snap;
}

}  // namespace qosrm::rmsim
