#include "rmsim/experiment.hh"

#include <gtest/gtest.h>

#include "rmsim/report.hh"
#include "support/shared_db.hh"

namespace qosrm::rmsim {
namespace {

const workload::SimDb& db() { return qosrm::testing::shared_db(); }

workload::WorkloadMix mix2(const char* a, const char* b) {
  workload::WorkloadMix mix;
  mix.name = std::string(a) + "+" + b;
  mix.scenario = workload::Scenario::One;
  mix.app_ids = {db().suite().index_of(a), db().suite().index_of(b)};
  return mix;
}

TEST(Experiment, IdleReferenceIsCached) {
  ExperimentRunner runner(db());
  const auto mix = mix2("mcf", "libquantum");
  const RunResult& first = runner.idle_reference(mix);
  const RunResult& second = runner.idle_reference(mix);
  EXPECT_EQ(&first, &second);
}

TEST(Experiment, SavingsConsistentWithRuns) {
  ExperimentRunner runner(db());
  const auto mix = mix2("mcf", "libquantum");
  rm::RmConfig cfg;
  cfg.policy = rm::RmPolicy::Rm3;
  const SavingsResult r = runner.run(mix, cfg);
  const double expected = energy_savings(r.run, runner.idle_reference(mix));
  EXPECT_DOUBLE_EQ(r.savings, expected);
}

TEST(Experiment, WeightedAverageAggregatesPerScenarioFirst) {
  using workload::Scenario;
  const std::vector<Scenario> scenarios = {Scenario::One, Scenario::One,
                                           Scenario::Four};
  const std::vector<double> savings = {0.10, 0.20, 0.0};
  const std::array<double, 4> weights = {0.5, 0.2, 0.2, 0.1};
  // Scenario 1 mean = 0.15 (weight .5), scenario 4 mean = 0 (weight .1);
  // normalized over used weights (.6): 0.15*.5/.6 = 0.125.
  EXPECT_NEAR(weighted_average_savings(scenarios, savings, weights), 0.125,
              1e-12);
}

TEST(Experiment, WeightedAverageEmptyIsZero) {
  EXPECT_DOUBLE_EQ(weighted_average_savings({}, {}, {0.25, 0.25, 0.25, 0.25}),
                   0.0);
}

TEST(Report, SavingsGridRendersAllVariants) {
  const std::vector<SavingsGridRow> rows = {
      {"4Core-W1", workload::Scenario::One, {0.05, 0.10, 0.15}}};
  const AsciiTable table = savings_grid(rows, {"RM1", "RM2", "RM3"});
  const std::string s = table.str();
  EXPECT_NE(s.find("4Core-W1"), std::string::npos);
  EXPECT_NE(s.find("15.0%"), std::string::npos);
  EXPECT_NE(s.find("Scenario 1"), std::string::npos);
}

TEST(Report, QosSummaryListsModels) {
  QosEvalResult r;
  r.model = rm::PerfModelKind::Model2;
  r.violation_probability = 0.05;
  const std::string s = qos_summary({r}).str();
  EXPECT_NE(s.find("Model2"), std::string::npos);
  EXPECT_NE(s.find("5.00%"), std::string::npos);
}

TEST(Report, HistogramsNormalizedToGlobalMax) {
  QosEvalResult a, b;
  a.model = rm::PerfModelKind::Model1;
  b.model = rm::PerfModelKind::Model3;
  a.histogram.add(0.05, 10.0);
  b.histogram.add(0.05, 5.0);
  const std::string s = qos_histograms({a, b});
  EXPECT_NE(s.find("1.0000"), std::string::npos);  // model1 peak
  EXPECT_NE(s.find("0.5000"), std::string::npos);  // model3 at half
}

}  // namespace
}  // namespace qosrm::rmsim
