// QoS-violation evaluation (paper Section IV-D.2, Figures 7 and 8).
//
// Sweeps all phases of all applications, all possible CURRENT settings and
// all possible TARGET settings. A (phase, current, target) case is a
// violation iff
//   1. actual:    T_act(target) >  T_act(baseline)        (ground truth)
//   2. predicted: T_pred(target) <= T_pred(baseline)      (model says OK)
// and the target is selectable by the RM (the paper assumes every current
// setting and every predicted-OK target is equally likely).
//
// No analytical prediction depends on the current frequency: the
// database's core time scales as 1/f and Eq. 1 multiplies it back by f_i
// (PerfModel.PredictionsIgnoreTheCurrentFrequency checks this). Every
// current VF point therefore repeats the same cases, so the sweep visits
// current settings over (core size, ways) at the baseline VF point only.
// The probabilities and magnitude statistics are the full sweep's; the
// masses count one VF point.
//
// Reported per model: the violation probability (violating mass over
// selectable mass), the expected violation magnitude (Eq. 6) and its
// standard deviation, plus the magnitude histogram of Fig. 8.
#ifndef QOSRM_RMSIM_QOS_EVAL_HH
#define QOSRM_RMSIM_QOS_EVAL_HH

#include <vector>

#include "common/histogram.hh"
#include "rm/perf_model.hh"
#include "workload/sim_db.hh"

namespace qosrm::rmsim {

struct QosEvalResult {
  rm::PerfModelKind model = rm::PerfModelKind::Model3;
  double violation_probability = 0.0;  ///< P(actual worse | predicted OK)
  double expected_violation = 0.0;     ///< E[Eq. 6 | violation]
  double violation_stddev = 0.0;
  double selectable_mass = 0.0;        ///< total weight of predicted-OK cases
  double violating_mass = 0.0;
  Histogram histogram{0.0, 0.5, 20};  ///< Fig. 8: 20 bins over [0, 0.5)
};

/// Runs the sweep for several models (shared precomputation), one result
/// per entry of `models`, in order.
[[nodiscard]] std::vector<QosEvalResult> evaluate_qos(
    const workload::SimDb& db, const std::vector<rm::PerfModelKind>& models);

}  // namespace qosrm::rmsim

#endif  // QOSRM_RMSIM_QOS_EVAL_HH
