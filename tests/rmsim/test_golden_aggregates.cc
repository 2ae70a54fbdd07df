// Golden-aggregate regression gate for the PAPER-SCALE grid: the committed
// tests/data files pin the exact bytes of the full 24-mix, 4-core figure
// pipeline - all policies, Model3 + the Perfect oracle, the alpha
// sensitivity axis {1.0, 1.05, 1.1} - i.e. the scenario-weighted Fig. 6
// savings, the Fig. 7 violation statistics and the Fig. 9 oracle deltas the
// paper reports. Any result-moving change must regenerate the paper numbers
// in the same commit, so savings drift is visible in review, never silent.
//
// Regenerate with:
/*
   ./build/src/sweep_main --cores=4 --per-scenario=6 \
       --models=model3,perfect --alphas=1,1.05,1.1 \
       --db-cache=.qosdb-cache --rows-csv=/tmp/paper_rows.csv \
       --agg-csv=tests/data/golden_paper_grid_agg.csv \
       --report-json=tests/data/golden_paper_grid_report.json \
       --fig6-csv=tests/data/golden_paper_grid_fig6.csv \
       --fig7-csv=tests/data/golden_paper_grid_fig7.csv \
       --fig9-csv=tests/data/golden_paper_grid_fig9.csv
*/
#include <gtest/gtest.h>

#include <string>

#include "rmsim/report.hh"
#include "rmsim/sweep.hh"
#include "support/shared_db.hh"
#include "support/slurp.hh"
#include "workload/db_io.hh"
#include "workload/workload_gen.hh"

namespace qosrm::rmsim {
namespace {

using testing::slurp;

/// The canonical paper grid (must match the regeneration command above and
/// the CI paper-grid job).
SweepGrid paper_grid(const workload::SimDb& db) {
  workload::WorkloadGenOptions gen;
  gen.cores = 4;
  gen.per_scenario = 6;
  gen.seed = 2020;

  SweepGrid grid;
  grid.mixes = workload::generate_workloads(db.suite(), gen);
  grid.policies = {rm::RmPolicy::Idle, rm::RmPolicy::Rm1, rm::RmPolicy::Rm2,
                   rm::RmPolicy::Rm3};
  grid.models = {rm::PerfModelKind::Model3, rm::PerfModelKind::Perfect};
  grid.qos_alphas = {1.0, 1.05, 1.1};
  return grid;
}

class GoldenAggregates : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const workload::SimDb& db = testing::shared_db(4);
    grid_ = new SweepGrid(paper_grid(db));
    SweepRunner runner(db, {});
    result_ = new SweepResult(runner.run(*grid_));
    fingerprint_ = sweep_fingerprint(
        *grid_, SimOptions{},
        workload::simdb_fingerprint(db.suite(), db.system(),
                                    db.phase_options()));
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
    delete grid_;
    grid_ = nullptr;
  }

  static SweepGrid* grid_;
  static SweepResult* result_;
  static std::uint64_t fingerprint_;
};

SweepGrid* GoldenAggregates::grid_ = nullptr;
SweepResult* GoldenAggregates::result_ = nullptr;
std::uint64_t GoldenAggregates::fingerprint_ = 0;

TEST_F(GoldenAggregates, PaperGridAggregatesMatchCommittedGolden) {
  ASSERT_EQ(result_->rows.size(), 24u * 4u * 2u * 3u);

  const std::string actual = aggregates_csv(*result_);

  const std::string golden_path =
      std::string(QOSRM_TEST_DATA_DIR) + "/golden_paper_grid_agg.csv";
  const std::string golden = slurp(golden_path);
  ASSERT_FALSE(golden.empty()) << golden_path;

  EXPECT_EQ(actual, golden)
      << "paper-grid aggregates drifted from " << golden_path
      << "\nIf the change is intentional, regenerate the golden files (see "
         "the header of this test) and justify the numerical diff in the "
         "same commit.";
}

TEST_F(GoldenAggregates, PaperGridFigureReportMatchesCommittedGolden) {
  const workload::SimDb& db = testing::shared_db(4);
  const FigureReport report = build_figure_report(
      result_->rows, grid_->shape(), fingerprint_, scenario_weights(db.suite()));

  // The report must carry the paper's three result sets: 24 configurations
  // of fig6/fig7 and the Model3-vs-Perfect deltas of fig9.
  ASSERT_EQ(report.fig6.size(), 4u * 2u * 3u);
  ASSERT_EQ(report.fig7.size(), 4u * 2u * 3u);
  ASSERT_EQ(report.fig9.size(), 4u * 3u);

  const std::string golden_path =
      std::string(QOSRM_TEST_DATA_DIR) + "/golden_paper_grid_report.json";
  const std::string golden = slurp(golden_path);
  ASSERT_FALSE(golden.empty()) << golden_path;

  EXPECT_EQ(figure_report_json(report), golden)
      << "paper-grid figure report drifted from " << golden_path
      << "\nIf the change is intentional, regenerate the golden files (see "
         "the header of this test) and justify the numerical diff in the "
         "same commit.";
}

TEST_F(GoldenAggregates, PaperGridFigureCsvsMatchCommittedGoldens) {
  const workload::SimDb& db = testing::shared_db(4);
  const FigureReport report = build_figure_report(
      result_->rows, grid_->shape(), fingerprint_, scenario_weights(db.suite()));
  ASSERT_FALSE(report.fig9.empty());

  const struct {
    const char* file;
    std::string text;
  } outputs[] = {{"golden_paper_grid_fig6.csv", fig6_csv(report)},
                 {"golden_paper_grid_fig7.csv", fig7_csv(report)},
                 {"golden_paper_grid_fig9.csv", fig9_csv(report)}};
  for (const auto& output : outputs) {
    const std::string golden_path =
        std::string(QOSRM_TEST_DATA_DIR) + "/" + output.file;
    const std::string golden = slurp(golden_path);
    ASSERT_FALSE(golden.empty()) << golden_path;
    EXPECT_EQ(output.text, golden)
        << "paper-grid figure CSV drifted from " << golden_path
        << "\nIf the change is intentional, regenerate the golden files (see "
           "the header of this test) and justify the numerical diff in the "
           "same commit.";
  }
}

// ---------------------------------------------------------------------------
// Classic-baseline golden gate: the same 24 paper mixes swept under the
// partitioning-only baselines (UCP / FCP / ClassPart) next to the Idle
// reference, Model3 only - the fast-suite subset of the baseline axis (the
// nightly paper-grid job re-runs this grid through the sweep_main binary and
// diffs the same committed files). Pins the Fig. 6/7 comparison rows the
// baselines contribute.
//
// Regenerate with:
/*
   ./build/src/sweep_main --cores=4 --per-scenario=6 \
       --policies=idle,ucp,fcp,classpart --models=model3 \
       --alphas=1,1.05,1.1 --db-cache=.qosdb-cache \
       --rows-csv=/tmp/baseline_rows.csv \
       --agg-csv=tests/data/golden_paper_baselines_agg.csv \
       --report-json=tests/data/golden_paper_baselines_report.json
*/

SweepGrid baseline_grid(const workload::SimDb& db) {
  SweepGrid grid = paper_grid(db);
  grid.policies = {rm::RmPolicy::Idle, rm::RmPolicy::Ucp, rm::RmPolicy::Fcp,
                   rm::RmPolicy::ClassPart};
  grid.models = {rm::PerfModelKind::Model3};
  return grid;
}

TEST(GoldenBaselineAggregates, BaselineGridMatchesCommittedGolden) {
  const workload::SimDb& db = testing::shared_db(4);
  const SweepGrid grid = baseline_grid(db);
  SweepRunner runner(db, {});
  const SweepResult result = runner.run(grid);
  ASSERT_EQ(result.rows.size(), 24u * 4u * 1u * 3u);

  const std::string actual = aggregates_csv(result);

  const std::string golden_path =
      std::string(QOSRM_TEST_DATA_DIR) + "/golden_paper_baselines_agg.csv";
  const std::string golden = slurp(golden_path);
  ASSERT_FALSE(golden.empty()) << golden_path;
  EXPECT_EQ(actual, golden)
      << "baseline-policy aggregates drifted from " << golden_path
      << "\nIf the change is intentional, regenerate the golden files (see "
         "the header of this test) and justify the numerical diff in the "
         "same commit.";

  const FigureReport report = build_figure_report(
      result.rows, grid.shape(),
      sweep_fingerprint(grid, SimOptions{},
                        workload::simdb_fingerprint(db.suite(), db.system(),
                                                    db.phase_options())),
      scenario_weights(db.suite()));
  // Fig. 6/7 gain one row per (baseline policy, alpha); Fig. 9 needs the
  // Perfect oracle, which this grid deliberately omits.
  ASSERT_EQ(report.fig6.size(), 4u * 1u * 3u);
  ASSERT_EQ(report.fig7.size(), 4u * 1u * 3u);
  ASSERT_TRUE(report.fig9.empty());

  const std::string report_path =
      std::string(QOSRM_TEST_DATA_DIR) + "/golden_paper_baselines_report.json";
  const std::string golden_report = slurp(report_path);
  ASSERT_FALSE(golden_report.empty()) << report_path;
  EXPECT_EQ(figure_report_json(report), golden_report)
      << "baseline-policy figure report drifted from " << report_path;
}

// ---------------------------------------------------------------------------
// CBP golden gate: a small 4-core grid with the memory-bandwidth knob
// engaged (--bw-shares=2, i.e. share axis [1, 3] around a 2-share baseline).
// This is the ONLY golden whose results flow through the genuinely 2-D
// (ways x shares) optimizer path - the paper grids above all run the
// degenerate single-share configuration and pin its byte-identity instead.
// The nightly paper-grid job re-runs this grid through the sweep_main binary
// and diffs the same committed files.
//
// Regenerate with:
/*
   ./build/src/sweep_main --cores=4 --per-scenario=1 --bw-shares=2 \
       --models=model3 --alphas=1,1.05,1.1 --db-cache=.qosdb-cache \
       --rows-csv=/tmp/cbp_rows.csv \
       --agg-csv=tests/data/golden_cbp_grid_agg.csv \
       --report-json=tests/data/golden_cbp_grid_report.json
*/

TEST(GoldenCbpAggregates, BandwidthPartitionedGridMatchesCommittedGolden) {
  const workload::SimDb& db = testing::shared_db(4, /*bw_shares=*/2);

  workload::WorkloadGenOptions gen;
  gen.cores = 4;
  gen.per_scenario = 1;
  gen.seed = 2020;
  SweepGrid grid;
  grid.mixes = workload::generate_workloads(db.suite(), gen);
  grid.policies = {rm::RmPolicy::Idle, rm::RmPolicy::Rm1, rm::RmPolicy::Rm2,
                   rm::RmPolicy::Rm3};
  grid.models = {rm::PerfModelKind::Model3};
  grid.qos_alphas = {1.0, 1.05, 1.1};

  SweepRunner runner(db, {});
  const SweepResult result = runner.run(grid);
  ASSERT_EQ(result.rows.size(), 4u * 4u * 1u * 3u);

  const std::string actual = aggregates_csv(result);

  const std::string golden_path =
      std::string(QOSRM_TEST_DATA_DIR) + "/golden_cbp_grid_agg.csv";
  const std::string golden = slurp(golden_path);
  ASSERT_FALSE(golden.empty()) << golden_path;
  EXPECT_EQ(actual, golden)
      << "CBP-grid aggregates drifted from " << golden_path
      << "\nIf the change is intentional, regenerate the golden files (see "
         "the header of this test) and justify the numerical diff in the "
         "same commit.";

  const FigureReport report = build_figure_report(
      result.rows, grid.shape(),
      sweep_fingerprint(grid, SimOptions{},
                        workload::simdb_fingerprint(db.suite(), db.system(),
                                                    db.phase_options())),
      scenario_weights(db.suite()));
  const std::string report_path =
      std::string(QOSRM_TEST_DATA_DIR) + "/golden_cbp_grid_report.json";
  const std::string golden_report = slurp(report_path);
  ASSERT_FALSE(golden_report.empty()) << report_path;
  EXPECT_EQ(figure_report_json(report), golden_report)
      << "CBP-grid figure report drifted from " << report_path;
}

// ---------------------------------------------------------------------------
// Scaled paper grids: the same 24 paper mixes replicated scenario-preserving
// onto 8 and 16 cores (sweep_main --cores=4 --replicate=2|4). These pin the
// optimizer hot path at the core counts where the vectorized DP and the
// interval-outcome memo do the most work, and the committed bytes are
// verified identical under the AVX2 and scalar builds - any
// SIMD-width-dependent result or op count fails this gate.
//
// Regenerate with (and its --replicate=4 twin for 16 cores):
/*
   ./build/src/sweep_main --cores=4 --replicate=2 --per-scenario=6 \
       --models=model3,perfect --alphas=1,1.05,1.1 \
       --db-cache=.qosdb-cache --rows-csv=/tmp/paper8_rows.csv \
       --agg-csv=tests/data/golden_paper_grid8_agg.csv \
       --report-json=tests/data/golden_paper_grid8_report.json
*/

class GoldenScaledAggregates : public ::testing::TestWithParam<int> {};

TEST_P(GoldenScaledAggregates, ReplicatedGridAggregatesMatchCommittedGolden) {
  const int replicate = GetParam();
  const int cores = 4 * replicate;
  const workload::SimDb& db = testing::shared_db(cores);

  SweepGrid grid = paper_grid(testing::shared_db(4));
  grid.mixes = workload::replicate_workloads(grid.mixes, replicate);

  SweepRunner runner(db, {});
  const SweepResult result = runner.run(grid);
  ASSERT_EQ(result.rows.size(), 24u * 4u * 2u * 3u);

  const std::string actual = aggregates_csv(result);

  const std::string golden_path = std::string(QOSRM_TEST_DATA_DIR) +
                                  "/golden_paper_grid" +
                                  std::to_string(cores) + "_agg.csv";
  const std::string golden = slurp(golden_path);
  ASSERT_FALSE(golden.empty()) << golden_path;
  EXPECT_EQ(actual, golden)
      << cores << "-core paper-grid aggregates drifted from " << golden_path
      << "\nIf the change is intentional, regenerate the golden files (see "
         "the header of this test) and justify the numerical diff in the "
         "same commit.";

  const FigureReport report = build_figure_report(
      result.rows, grid.shape(),
      sweep_fingerprint(grid, SimOptions{},
                        workload::simdb_fingerprint(db.suite(), db.system(),
                                                    db.phase_options())),
      scenario_weights(db.suite()));
  const std::string report_path = std::string(QOSRM_TEST_DATA_DIR) +
                                  "/golden_paper_grid" +
                                  std::to_string(cores) + "_report.json";
  const std::string golden_report = slurp(report_path);
  ASSERT_FALSE(golden_report.empty()) << report_path;
  EXPECT_EQ(figure_report_json(report), golden_report)
      << cores << "-core paper-grid figure report drifted from " << report_path;
}

INSTANTIATE_TEST_SUITE_P(ReplicationFactors, GoldenScaledAggregates,
                         ::testing::Values(2, 4));

}  // namespace
}  // namespace qosrm::rmsim
