#include "rm/counters.hh"

#include <algorithm>

#include "arch/dvfs.hh"
#include "common/check.hh"

namespace qosrm::rm {

void fill_counters(CounterSnapshot& snap) {
  QOSRM_CHECK_MSG(snap.memo_db != nullptr,
                  "fill_counters needs a snapshot that names its source cell");
  const workload::SimDb& db = *snap.memo_db;
  const workload::Setting& current = snap.current;
  const workload::PhaseStats& st = db.stats(snap.app, snap.phase);
  const arch::IntervalTiming timing = db.timing(snap.app, snap.phase, current);
  const double f_hz = arch::VfTable::frequency_hz(current.f_idx);
  // Ways clamp to the characterized curve, as in the key and every lookup,
  // so two settings that share a key also share every counter.
  const int w = std::clamp(current.w, 1, st.max_ways());

  snap.instructions = st.interval_instructions;
  snap.total_time_s = timing.total_seconds;
  snap.t_width_s = timing.width_cycles / f_hz;
  snap.t_ilp_s = timing.ilp_cycles / f_hz;
  snap.t_branch_s = timing.branch_cycles / f_hz;
  snap.t_cache_s = timing.cache_cycles / f_hz;
  snap.t_mem_s = timing.mem_seconds;
  snap.llc_accesses = st.llc_accesses;
  snap.llc_misses = st.misses[static_cast<std::size_t>(w - 1)];
  snap.writebacks = st.writebacks(w);
  snap.measured_mlp = st.mlp_true(current.c, w);
  // The ATD curves are views of the database's phase statistics, not
  // copies: a fill re-points them.
  snap.atd_misses = st.misses;
  for (std::size_t i = 0; i < snap.atd_leading_misses.size(); ++i) {
    snap.atd_leading_misses[i] = st.lm_atd[i];
  }

  // RAPL-like dynamic power sample from the measured interval, on the
  // timing already built above.
  const double core_j =
      db.energy(snap.app, snap.phase, current, timing).core_j();
  snap.power_sample =
      power::sample_interval(db.power(), current.c,
                             arch::VfTable::point(current.f_idx), core_j,
                             timing.total_seconds);
  snap.key_only = false;
}

}  // namespace qosrm::rm
