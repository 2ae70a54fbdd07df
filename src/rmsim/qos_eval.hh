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

struct QosEvalOptions {
  /// Restrict the current-setting sweep to every n-th VF point (1 = all).
  /// Predictions scale smoothly with f, so coarser sampling changes nothing
  /// qualitatively but speeds up exploratory runs.
  int current_f_stride = 1;
  double histogram_max = 0.5;  ///< Fig. 8 x-axis upper bound (50% violation)
  int histogram_bins = 20;
  double actual_epsilon = 1e-9;  ///< strict ">" comparison guard
};

struct QosEvalResult {
  rm::PerfModelKind model = rm::PerfModelKind::Model3;
  double violation_probability = 0.0;  ///< P(actual worse | predicted OK)
  double expected_violation = 0.0;     ///< E[Eq. 6 | violation]
  double violation_stddev = 0.0;
  double selectable_mass = 0.0;        ///< total weight of predicted-OK cases
  double violating_mass = 0.0;
  Histogram histogram{0.0, 0.5, 20};
};

class QosEvaluator {
 public:
  QosEvaluator(const workload::SimDb& db, const QosEvalOptions& options = {});

  /// Runs the sweep for several models (shared precomputation).
  [[nodiscard]] std::vector<QosEvalResult> evaluate_all(
      const std::vector<rm::PerfModelKind>& models) const;

 private:
  const workload::SimDb* db_;
  QosEvalOptions opt_;
};

}  // namespace qosrm::rmsim

#endif  // QOSRM_RMSIM_QOS_EVAL_HH
