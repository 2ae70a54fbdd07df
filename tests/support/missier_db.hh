// A second database whose curves differ from a first one's: the same suite,
// system, power model and phase options, with every LLC miss count tripled.
// Tests use it wherever snapshots must meet two databases (a manager's memo
// serves one, a kernel rebound to another must refill its snapshots).
#ifndef QOSRM_TESTS_SUPPORT_MISSIER_DB_HH
#define QOSRM_TESTS_SUPPORT_MISSIER_DB_HH

#include <memory>
#include <vector>

#include "workload/sim_db.hh"

namespace qosrm::testing {

/// `base`'s per-phase statistics, [app][phase], with the LLC access count,
/// the miss curve and both leading-miss curves scaled by `factor`: 1 gives
/// an exact copy, 3 the tripled-miss statistics.
inline std::vector<std::vector<workload::PhaseStats>> miss_scaled_stats(
    const workload::SimDb& base, double factor) {
  std::vector<std::vector<workload::PhaseStats>> stats;
  for (int app = 0; app < base.suite().size(); ++app) {
    auto& per_app = stats.emplace_back();
    for (int ph = 0; ph < base.num_phases(app); ++ph) {
      workload::PhaseStats& st = per_app.emplace_back(base.stats(app, ph));
      st.llc_accesses *= factor;
      for (double& m : st.misses) m *= factor;
      for (auto* curves : {&st.lm_true, &st.lm_atd}) {
        for (std::vector<double>& curve : *curves) {
          for (double& lm : curve) lm *= factor;
        }
      }
    }
  }
  return stats;
}

/// `base` with every LLC miss count tripled.
inline std::unique_ptr<workload::SimDb> missier_db(const workload::SimDb& base) {
  return std::make_unique<workload::SimDb>(base.suite(), base.system(), base.power(),
                                           base.phase_options(),
                                           miss_scaled_stats(base, 3.0));
}

}  // namespace qosrm::testing

#endif  // QOSRM_TESTS_SUPPORT_MISSIER_DB_HH
