// Figure-report subsystem tests: aggregate math on synthetic rows, JSON
// byte-stability, atomic writes and the grids' row order.
#include "rmsim/report.hh"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/file_util.hh"
#include "rmsim/sweep.hh"
#include "support/slurp.hh"

namespace qosrm::rmsim {
namespace {

using testing::slurp;

SweepRow make_row(const std::string& workload, workload::Scenario scenario,
                  rm::RmPolicy policy, rm::PerfModelKind model, double alpha,
                  double savings, std::uint64_t intervals,
                  std::uint64_t violations, double violation_sum,
                  double violation_max) {
  SweepRow row;
  row.workload = workload;
  row.scenario = scenario;
  row.policy = policy;
  row.model = model;
  row.qos_alpha = alpha;
  row.result.savings = savings;
  RunResult& run = row.result.run;
  run.workload = workload;
  run.scenario = scenario;
  run.policy = policy;
  run.model = model;
  CoreResult core;
  core.app = 0;
  core.intervals = intervals;
  core.qos_violations = violations;
  core.violation_sum = violation_sum;
  core.violation_max = violation_max;
  run.cores = {core};
  return row;
}

/// 2 mixes x {Idle, RM3} x {Model3, Perfect} x 2 alphas, in grid order
/// (alpha-major, mix-minor). Savings are synthetic but distinct per cell.
struct SyntheticGrid {
  GridShape shape{2, 2, 2, 2};
  std::vector<SweepRow> rows;
  std::array<double, 4> weights{0.47, 0.221, 0.221, 0.088};

  SyntheticGrid() {
    const std::vector<rm::RmPolicy> policies = {rm::RmPolicy::Idle,
                                                rm::RmPolicy::Rm3};
    const std::vector<rm::PerfModelKind> models = {rm::PerfModelKind::Model3,
                                                   rm::PerfModelKind::Perfect};
    const std::vector<double> alphas = {1.0, 1.1};
    double value = 0.0;
    for (std::size_t ai = 0; ai < alphas.size(); ++ai) {
      for (std::size_t ki = 0; ki < models.size(); ++ki) {
        for (std::size_t pi = 0; pi < policies.size(); ++pi) {
          for (std::size_t mi = 0; mi < 2; ++mi) {
            value += 0.01;
            const auto scenario =
                mi == 0 ? workload::Scenario::One : workload::Scenario::Three;
            rows.push_back(make_row(
                mi == 0 ? "W1" : "W2", scenario, policies[pi], models[ki],
                alphas[ai], value, /*intervals=*/100 + mi,
                /*violations=*/mi == 0 ? 4 : 0,
                /*violation_sum=*/mi == 0 ? 0.2 : 0.0,
                /*violation_max=*/mi == 0 ? 0.09 : 0.0));
          }
        }
      }
    }
  }
};

TEST(FigureReport, Fig6AggregatesMatchTheSharedWeightedAverage) {
  const SyntheticGrid g;
  const FigureReport report =
      build_figure_report(g.rows, g.shape, 0xabcdu, g.weights);

  ASSERT_EQ(report.fig6.size(), 8u);  // 2 policies x 2 models x 2 alphas
  ASSERT_EQ(report.workloads, (std::vector<std::string>{"W1", "W2"}));
  ASSERT_EQ(report.qos_alphas, (std::vector<double>{1.0, 1.1}));
  EXPECT_EQ(report.fingerprint, 0xabcdu);

  // Entry 1 = (alpha 1.0, Model3, RM3): rows 2 and 3 of the synthetic grid.
  const Fig6Entry& e = report.fig6[1];
  EXPECT_EQ(e.policy, rm::RmPolicy::Rm3);
  EXPECT_EQ(e.model, rm::PerfModelKind::Model3);
  EXPECT_DOUBLE_EQ(e.qos_alpha, 1.0);
  const double s1 = g.rows[2].result.savings;
  const double s2 = g.rows[3].result.savings;
  EXPECT_EQ(e.per_mix_savings, (std::vector<double>{s1, s2}));
  EXPECT_DOUBLE_EQ(e.mean_savings, (s1 + s2) / 2.0);
  EXPECT_DOUBLE_EQ(e.max_savings, s2);
  EXPECT_DOUBLE_EQ(e.scenario_mean_savings[0], s1);
  EXPECT_DOUBLE_EQ(e.scenario_mean_savings[2], s2);
  EXPECT_DOUBLE_EQ(e.scenario_mean_savings[1], 0.0);  // no scenario-2 mixes
  EXPECT_DOUBLE_EQ(e.weighted_savings,
                   weighted_average_savings(
                       {workload::Scenario::One, workload::Scenario::Three},
                       {s1, s2}, g.weights));
}

TEST(FigureReport, Fig7CountsViolationsAndMagnitudes) {
  const SyntheticGrid g;
  const FigureReport report =
      build_figure_report(g.rows, g.shape, 1u, g.weights);

  ASSERT_EQ(report.fig7.size(), 8u);
  const Fig7Entry& e = report.fig7[0];  // (alpha 1.0, Model3, Idle)
  EXPECT_EQ(e.intervals, 201u);         // 100 + 101
  EXPECT_EQ(e.violations, 4u);
  EXPECT_DOUBLE_EQ(e.violation_rate, 4.0 / 201.0);
  // Uniform mean of the per-mix rates: (4/100 + 0/101) / 2.
  EXPECT_DOUBLE_EQ(e.mean_violation_rate, (4.0 / 100.0) / 2.0);
  EXPECT_DOUBLE_EQ(e.mean_magnitude, 0.2 / 4.0);
  EXPECT_DOUBLE_EQ(e.max_magnitude, 0.09);
  EXPECT_EQ(e.violating_mixes, 1u);
}

TEST(FigureReport, Fig9ReportsOracleDeltasOnlyWithPerfectAxis) {
  const SyntheticGrid g;
  const FigureReport report =
      build_figure_report(g.rows, g.shape, 1u, g.weights);

  // One delta per (alpha, non-Perfect model, policy).
  ASSERT_EQ(report.fig9.size(), 4u);
  const Fig9Entry& e = report.fig9[1];  // (alpha 1.0, Model3, RM3)
  EXPECT_EQ(e.model, rm::PerfModelKind::Model3);
  EXPECT_EQ(e.policy, rm::RmPolicy::Rm3);
  const Fig6Entry& model6 = report.fig6[1];
  const Fig6Entry& oracle6 = report.fig6[3];
  EXPECT_DOUBLE_EQ(e.weighted_savings, model6.weighted_savings);
  EXPECT_DOUBLE_EQ(e.oracle_weighted_savings, oracle6.weighted_savings);
  EXPECT_DOUBLE_EQ(e.weighted_gap,
                   oracle6.weighted_savings - model6.weighted_savings);

  // Without the Perfect axis the section is empty (Model3-only sub-grid).
  std::vector<SweepRow> model3_only;
  GridShape shape = g.shape;
  shape.models = 1;
  for (const SweepRow& row : g.rows) {
    if (row.model == rm::PerfModelKind::Model3) model3_only.push_back(row);
  }
  const FigureReport no_oracle =
      build_figure_report(model3_only, shape, 1u, g.weights);
  EXPECT_TRUE(no_oracle.fig9.empty());
  EXPECT_EQ(no_oracle.fig6.size(), 4u);
}

TEST(FigureReport, JsonIsByteStableAndStampsTheFingerprint) {
  const SyntheticGrid g;
  const FigureReport a =
      build_figure_report(g.rows, g.shape, 0xdeadbeefcafe0123u, g.weights);
  const FigureReport b =
      build_figure_report(g.rows, g.shape, 0xdeadbeefcafe0123u, g.weights);
  const std::string json = figure_report_json(a);
  EXPECT_EQ(json, figure_report_json(b));
  EXPECT_NE(json.find("\"fingerprint\": \"deadbeefcafe0123\""),
            std::string::npos);
  // A different fingerprint changes the stamp (and nothing silently strips it).
  const FigureReport c = build_figure_report(g.rows, g.shape, 1u, g.weights);
  EXPECT_NE(json, figure_report_json(c));
}

TEST(FigureReport, JsonWriteIsAtomicAndLeavesNoTempFiles) {
  const SyntheticGrid g;
  const FigureReport report =
      build_figure_report(g.rows, g.shape, 7u, g.weights);
  // A private subdirectory: scanning the shared TempDir would race with
  // other test binaries' in-flight temp files under parallel ctest.
  const std::string dir = ::testing::TempDir() + "/report_atomic_check";
  std::filesystem::create_directory(dir);
  const std::string path = dir + "/report_atomic_check.json";

  std::string error;
  ASSERT_TRUE(write_file_atomic(path, figure_report_json(report), &error))
      << error;
  EXPECT_EQ(slurp(path), figure_report_json(report));
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
        << "temp file left behind: " << entry.path();
  }
  std::filesystem::remove_all(dir);

  // A failing write reports an error and leaves no target file behind.
  EXPECT_FALSE(write_file_atomic("/nonexistent-dir/report.json",
                                 figure_report_json(report), &error));
  EXPECT_FALSE(std::filesystem::exists("/nonexistent-dir/report.json"));
}

// A failed commit is a false return naming the path, never an exception: a
// main reports it as exit 1 naming the flag.
TEST(SweepCsv, UnwritablePathReturnsFalseNamingThePath) {
  const SyntheticGrid g;
  SweepResult result;
  result.rows = g.rows;
  result.aggregates = compute_aggregates(g.rows, g.shape, g.weights);

  const std::string agg_path = "/nonexistent-dir/agg.csv";
  std::string error;
  EXPECT_FALSE(write_aggregates_csv(result, agg_path, &error));
  EXPECT_NE(error.find(agg_path), std::string::npos) << error;
  EXPECT_FALSE(write_aggregates_csv(result, agg_path));  // error is optional

  const std::string rows_path = "/nonexistent-dir/rows.csv";
  error.clear();
  EXPECT_FALSE(write_file_atomic(rows_path, sweep_rows_csv(result), &error));
  EXPECT_NE(error.find(rows_path), std::string::npos) << error;
}

// Row order is defined once, by GridShape::index/cell: alpha-major, then
// model, then policy, mix-minor.
TEST(GridShape, IndexRoundTripsEveryCellOfANonSquareShape) {
  const GridShape shape{3, 2, 4, 5};
  std::size_t idx = 0;
  for (std::size_t ai = 0; ai < shape.alphas; ++ai) {
    for (std::size_t ki = 0; ki < shape.models; ++ki) {
      for (std::size_t pi = 0; pi < shape.policies; ++pi) {
        for (std::size_t mi = 0; mi < shape.mixes; ++mi, ++idx) {
          const GridCell cell{mi, pi, ki, ai};
          EXPECT_EQ(shape.index(cell), idx);
          EXPECT_EQ(shape.cell(idx), cell);
        }
      }
    }
  }
  EXPECT_EQ(idx, shape.size());
}

// Service row order: pattern-minor, then load, admission, policy, alpha-major;
// ServiceGrid::point must agree with it.
TEST(ServiceGridShape, IndexRoundTripsAndMatchesServiceGridPoint) {
  ServiceGrid grid;
  grid.patterns = {workload::ArrivalPattern::Poisson,
                   workload::ArrivalPattern::Bursty,
                   workload::ArrivalPattern::Diurnal};
  grid.loads = {0.5, 0.9};
  grid.admissions = {AdmissionPolicy::Fifo, AdmissionPolicy::QosAware};
  grid.policies = {rm::RmPolicy::Idle, rm::RmPolicy::Rm1, rm::RmPolicy::Rm3};
  grid.qos_alphas = {0.0, 1.05, 1.1, 1.2};
  const ServiceGridShape shape = grid.shape();

  std::size_t idx = 0;
  for (std::size_t ai = 0; ai < shape.alphas; ++ai) {
    for (std::size_t oi = 0; oi < shape.policies; ++oi) {
      for (std::size_t di = 0; di < shape.admissions; ++di) {
        for (std::size_t li = 0; li < shape.loads; ++li) {
          for (std::size_t pi = 0; pi < shape.patterns; ++pi, ++idx) {
            const ServiceCell cell{pi, li, di, oi, ai};
            EXPECT_EQ(shape.index(cell), idx);
            EXPECT_EQ(shape.cell(idx), cell);
            const ServicePoint point = grid.point(idx);
            EXPECT_EQ(point.pattern, grid.patterns[pi]);
            EXPECT_EQ(point.load, grid.loads[li]);
            EXPECT_EQ(point.admission, grid.admissions[di]);
            EXPECT_EQ(point.policy, grid.policies[oi]);
            EXPECT_EQ(point.qos_alpha, grid.qos_alphas[ai]);
          }
        }
      }
    }
  }
  EXPECT_EQ(idx, shape.size());
}

}  // namespace
}  // namespace qosrm::rmsim
