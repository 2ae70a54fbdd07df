#include "rmsim/snapshot.hh"

#include <algorithm>
#include <cstdint>

#include "arch/dvfs.hh"
#include "power/energy_meter.hh"

namespace qosrm::rmsim {

void make_snapshot_into(const workload::SimDb& db, int app, int phase,
                        const workload::Setting& current, int oracle_phase,
                        rm::CounterSnapshot& out) {
  // Memo identity: every refresh restamps the key, so a stale outcome can
  // never be served for counters the snapshot no longer holds.
  const std::int64_t key = db.interval_key(app, phase, current);
  out.oracle = oracle_phase >= 0 ? rm::OracleRef{&db, app, oracle_phase}
                                 : rm::OracleRef{};
  // Same-cell refresh: every counter below is a pure function of (db, key)
  // and `current`, so a snapshot that already holds them is left as is.
  if (out.memo_db == &db && out.memo_key == key && out.current == current) {
    return;
  }

  const workload::PhaseStats& st = db.stats(app, phase);
  const arch::IntervalTiming timing = db.timing(app, phase, current);
  const double f_hz = arch::VfTable::frequency_hz(current.f_idx);
  // Ways clamp to the characterized curve, as in the key and every lookup.
  const int w = std::clamp(current.w, 1, st.max_ways());

  out.current = current;
  out.instructions = st.interval_instructions;
  out.total_time_s = timing.total_seconds;
  out.t_width_s = timing.width_cycles / f_hz;
  out.t_ilp_s = timing.ilp_cycles / f_hz;
  out.t_branch_s = timing.branch_cycles / f_hz;
  out.t_cache_s = timing.cache_cycles / f_hz;
  out.t_mem_s = timing.mem_seconds;
  out.llc_accesses = st.llc_accesses;
  out.llc_misses = st.misses[static_cast<std::size_t>(w - 1)];
  out.writebacks = st.writebacks(w);
  out.measured_mlp = st.mlp_true(current.c, w);
  // The ATD curves are views of the database's phase statistics, not
  // copies: a refresh re-points them.
  out.atd_misses = st.misses;
  for (std::size_t i = 0; i < out.atd_leading_misses.size(); ++i) {
    out.atd_leading_misses[i] = st.lm_atd[i];
  }

  // RAPL-like dynamic power sample from the measured interval. The core
  // energy is SimDb::energy's call on the timing already built above.
  const arch::OperatingPoint vf = arch::VfTable::point(current.f_idx);
  const double core_j =
      db.power()
          .interval_energy(current.c, vf, timing, st.interval_instructions,
                           st.dram_accesses(w))
          .core_j();
  out.power_sample = power::sample_interval(db.power(), current.c, vf, core_j,
                                            timing.total_seconds);

  out.memo_key = key;
  out.memo_space = db.interval_key_space();
  out.memo_db = &db;
}

rm::CounterSnapshot make_snapshot(const workload::SimDb& db, int app, int phase,
                                  const workload::Setting& current,
                                  int oracle_phase) {
  rm::CounterSnapshot snap;
  make_snapshot_into(db, app, phase, current, oracle_phase, snap);
  return snap;
}

}  // namespace qosrm::rmsim
