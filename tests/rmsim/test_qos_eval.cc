#include "rmsim/qos_eval.hh"

#include <gtest/gtest.h>

#include "support/shared_db.hh"

namespace qosrm::rmsim {
namespace {

const workload::SimDb& db() { return qosrm::testing::shared_db(); }

// The full sweep is expensive; share one coarse evaluation across tests.
const std::vector<QosEvalResult>& results() {
  static const std::vector<QosEvalResult> r = [] {
    QosEvalOptions opt;
    opt.current_f_stride = 6;  // coarse current-frequency sampling
    const QosEvaluator eval(db(), opt);
    return eval.evaluate_all({rm::PerfModelKind::Model1,
                              rm::PerfModelKind::Model2,
                              rm::PerfModelKind::Model3});
  }();
  return r;
}

TEST(QosEval, ProbabilitiesAreProbabilities) {
  for (const QosEvalResult& r : results()) {
    EXPECT_GE(r.violation_probability, 0.0);
    EXPECT_LE(r.violation_probability, 1.0);
    EXPECT_GE(r.selectable_mass, r.violating_mass);
  }
}

TEST(QosEval, EveryModelHasSelectableSettings) {
  for (const QosEvalResult& r : results()) {
    EXPECT_GT(r.selectable_mass, 0.0);
  }
}

TEST(QosEval, ViolationMagnitudesWithinHistogramRange) {
  for (const QosEvalResult& r : results()) {
    if (r.violating_mass == 0.0) continue;
    EXPECT_GT(r.expected_violation, 0.0);
    EXPECT_GE(r.histogram.total(), r.violating_mass * 0.999);
  }
}

TEST(QosEval, SingleModelEvaluationMatchesBatch) {
  QosEvalOptions opt;
  opt.current_f_stride = 6;
  const QosEvaluator eval(db(), opt);
  const QosEvalResult single = eval.evaluate_all({rm::PerfModelKind::Model2}).front();
  EXPECT_NEAR(single.violation_probability, results()[1].violation_probability,
              1e-12);
  EXPECT_NEAR(single.expected_violation, results()[1].expected_violation, 1e-12);
}

}  // namespace
}  // namespace qosrm::rmsim
