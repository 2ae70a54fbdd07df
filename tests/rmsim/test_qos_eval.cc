#include "rmsim/qos_eval.hh"

#include <gtest/gtest.h>

#include "support/shared_db.hh"

namespace qosrm::rmsim {
namespace {

const workload::SimDb& db() { return qosrm::testing::shared_db(); }

const std::vector<QosEvalResult>& results() {
  static const std::vector<QosEvalResult> r =
      evaluate_qos(db(), {rm::PerfModelKind::Model1, rm::PerfModelKind::Model2,
                          rm::PerfModelKind::Model3});
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
  const QosEvalResult single =
      evaluate_qos(db(), {rm::PerfModelKind::Model2}).front();
  EXPECT_NEAR(single.violation_probability, results()[1].violation_probability,
              1e-12);
  EXPECT_NEAR(single.expected_violation, results()[1].expected_violation, 1e-12);
}

}  // namespace
}  // namespace qosrm::rmsim
