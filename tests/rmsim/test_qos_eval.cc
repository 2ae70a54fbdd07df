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

TEST(QosEval, Model3BeatsModel1OnViolationProbability) {
  // Paper Fig. 7: the proposed model reduces violation probability by ~46%
  // vs Model1; require a clear reduction.
  EXPECT_LT(results()[2].violation_probability,
            results()[0].violation_probability * 0.85);
}

TEST(QosEval, Model3BeatsModel2OnViolationProbability) {
  // Paper Fig. 7: ~32% reduction vs Model2; require a clear reduction.
  EXPECT_LT(results()[2].violation_probability,
            results()[1].violation_probability * 0.9);
}

TEST(QosEval, Model3ReducesExpectedViolation) {
  // Paper Fig. 7: expected violation magnitude down ~49% vs Model2.
  EXPECT_LT(results()[2].expected_violation,
            results()[1].expected_violation);
}

TEST(QosEval, ViolationMagnitudesWithinHistogramRange) {
  for (const QosEvalResult& r : results()) {
    if (r.violating_mass == 0.0) continue;
    EXPECT_GT(r.expected_violation, 0.0);
    EXPECT_GE(r.histogram.total(), r.violating_mass * 0.999);
  }
}

TEST(QosEval, HistogramTailShorterForModel3) {
  // Fig. 8: the proposed model's large-violation tail shrinks. Compare the
  // mass above 10% violation.
  auto tail_mass = [](const QosEvalResult& r) {
    double mass = 0.0;
    for (std::size_t b = 0; b < r.histogram.bin_count(); ++b) {
      if (r.histogram.bin_lo(b) >= 0.10) mass += r.histogram.count(b);
    }
    return mass;
  };
  EXPECT_LT(tail_mass(results()[2]), tail_mass(results()[1]));
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
