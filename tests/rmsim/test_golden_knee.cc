// Golden gate for the aggregate service knee report: the committed
// tests/data/golden_service_knee_report.json (and the per-pattern CSVs
// golden_service_knee_<pattern>.csv) pins the exact knee curves of
// the 4-core admission sweep (poisson+bursty, 6 loads, all three admission
// policies, RM3, alpha 0, seed 2020, knee threshold 0.095 - the same grid
// CI's service-smoke knee step runs through the CLI). Future refactors must
// reproduce it BYTE for BYTE; an intentional result change regenerates the
// golden in the same commit so drift is visible in review.
//
// Regenerate with:
/*
   ./build/src/service_main --cores=4 --num-arrivals=400 \
       --arrivals=poisson,bursty --loads=0.6,0.9,1.2,1.5,1.8,2.1 \
       --admission=fifo,sdf,qos-aware --policies=rm3 --alphas=0 \
       --seed=2020 --knee-threshold=0.095 \
       --knee-report=tests/data/golden_service_knee_report.json \
       --knee-csv-prefix=tests/data/golden_service_knee_
*/
//
// Builds the full simulation database (tests/support/shared_db.hh), so the
// binary carries LABELS slow.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/system_config.hh"
#include "rmsim/report.hh"
#include "rmsim/service.hh"
#include "support/shared_db.hh"
#include "support/slurp.hh"
#include "workload/db_io.hh"
#include "workload/spec_suite.hh"

namespace qosrm::rmsim {
namespace {

using testing::slurp;

/// The golden configuration: mirrors the CLI invocation in the header
/// comment (and CI's service-smoke knee step) exactly.
ServiceGrid golden_grid() {
  ServiceGrid grid;
  grid.patterns = {workload::ArrivalPattern::Poisson,
                   workload::ArrivalPattern::Bursty};
  grid.loads = {0.6, 0.9, 1.2, 1.5, 1.8, 2.1};
  grid.admissions = {AdmissionPolicy::Fifo, AdmissionPolicy::Sdf,
                     AdmissionPolicy::QosAware};
  grid.policies = {rm::RmPolicy::Rm3};
  grid.qos_alphas = {0.0};
  return grid;
}

ServiceConfig golden_config() {
  ServiceConfig config;
  config.arrivals = 400;
  config.seed = 2020;
  return config;
}

std::uint64_t golden_fingerprint() {
  arch::SystemConfig system;
  system.cores = 4;
  return service_fingerprint(
      golden_grid(), golden_config(),
      workload::simdb_fingerprint(workload::spec_suite(), system,
                                  workload::PhaseStatsOptions{}));
}

TEST(GoldenKnee, FourCoreAdmissionSweepMatchesCommittedGolden) {
  const workload::SimDb& db = testing::shared_db(4);
  const ServiceGrid grid = golden_grid();
  const ServiceConfig config = golden_config();

  const ServiceResult result = run_service(db, grid, config);
  const ServiceKneeReport report = build_service_knee_report(
      result.rows, grid.shape(), golden_fingerprint(), 0.095);

  // The acceptance bar: a detected knee on EVERY {pattern x admission}
  // curve at 4 cores.
  for (const KneeCurve& curve : report.curves) {
    EXPECT_GE(curve.knee_index, 0)
        << workload::arrival_pattern_name(curve.pattern) << "/"
        << admission_policy_name(curve.admission) << " has no knee";
  }

  const std::string golden_path =
      std::string(QOSRM_TEST_DATA_DIR) + "/golden_service_knee_report.json";
  const std::string golden = slurp(golden_path);
  ASSERT_FALSE(golden.empty()) << golden_path;

  EXPECT_EQ(service_knee_report_json(report), golden)
      << "knee report drifted from " << golden_path
      << "\nIf the change is intentional, regenerate the golden file (see "
         "the header of this test) and justify the numerical diff in the "
         "same commit.";

  for (const workload::ArrivalPattern pattern : grid.patterns) {
    const std::string csv_path = std::string(QOSRM_TEST_DATA_DIR) +
                                 "/golden_service_knee_" +
                                 workload::arrival_pattern_name(pattern) +
                                 ".csv";
    const std::string golden_csv = slurp(csv_path);
    ASSERT_FALSE(golden_csv.empty()) << csv_path;
    EXPECT_EQ(knee_curve_csv(report, pattern), golden_csv)
        << "knee-curve CSV drifted from " << csv_path;
  }
}

/// Paper-plus pool scale: the ROADMAP's open item asks for the service
/// engine at 32- and 64-core pools. A full golden there would dominate the
/// slow suite, so this pins the structural invariants instead: arrival
/// conservation per cell, a sane occupancy, and byte-identical reruns.
class ServicePoolScale : public ::testing::TestWithParam<int> {};

TEST_P(ServicePoolScale, BigPoolServiceRunIsConservedAndDeterministic) {
  const int cores = GetParam();
  const workload::SimDb& db = testing::shared_db(cores);

  ServiceGrid grid;
  grid.loads = {1.2};
  grid.admissions = {AdmissionPolicy::Fifo, AdmissionPolicy::Sdf,
                     AdmissionPolicy::QosAware};
  ServiceConfig config;
  config.arrivals = 256;
  config.seed = 2020;

  const ServiceResult result = run_service(db, grid, config);
  ASSERT_EQ(result.rows.size(), grid.size());
  for (const ServiceRow& row : result.rows) {
    const ServiceMetrics& m = row.metrics;
    EXPECT_EQ(m.arrivals, config.arrivals);
    EXPECT_EQ(m.arrivals, m.served + m.rejected);
    EXPECT_GT(m.occupancy, 0.0);
    EXPECT_LE(m.occupancy, 1.0);
  }

  // Determinism at scale: a rerun reproduces every row bit for bit (the
  // same property the goldens pin at 4 cores, without committing a golden
  // per pool size).
  const ServiceResult rerun = run_service(db, grid, config);
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    EXPECT_EQ(result.rows[i].metrics.p99_violation,
              rerun.rows[i].metrics.p99_violation);
    EXPECT_EQ(result.rows[i].metrics.energy_total_j,
              rerun.rows[i].metrics.energy_total_j);
    EXPECT_EQ(result.rows[i].metrics.served, rerun.rows[i].metrics.served);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperPlusPools, ServicePoolScale,
                         ::testing::Values(32, 64),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace qosrm::rmsim
