// Golden gate for the service report: the committed
// tests/data/golden_service_report.json (and its CSV twin
// golden_service_rows.csv) pins every metric of the 2-core
// service grid (poisson+bursty+diurnal x load 0.7/1.0 x idle/rm3, fifo
// admission, alpha 0, 400 arrivals, seed 2020 - the same grid CI's
// service-smoke step runs through the CLI). Future refactors must reproduce
// it BYTE for BYTE; an intentional result change regenerates the golden in
// the same commit so drift is visible in review.
//
// Regenerate with (one command line):
//   ./build/src/service_main --cores=2 --num-arrivals=400
//       --arrivals=poisson,bursty,diurnal --loads=0.7,1.0
//       --policies=idle,rm3 --alphas=0 --seed=2020
//       --report-json=tests/data/golden_service_report.json
//       --rows-csv=tests/data/golden_service_rows.csv
//
// Builds the full simulation database (tests/support/shared_db.hh), so the
// binary carries LABELS slow.
#include <string>

#include <gtest/gtest.h>

#include "rmsim/report.hh"
#include "rmsim/service.hh"
#include "support/shared_db.hh"
#include "support/slurp.hh"
#include "workload/db_io.hh"

namespace qosrm::rmsim {
namespace {

using testing::slurp;

TEST(GoldenService, TwoCoreServiceReportMatchesCommittedGolden) {
  const workload::SimDb& db = testing::shared_db(2);

  ServiceGrid grid;
  grid.patterns = {workload::ArrivalPattern::Poisson,
                   workload::ArrivalPattern::Bursty,
                   workload::ArrivalPattern::Diurnal};
  grid.loads = {0.7, 1.0};
  grid.policies = {rm::RmPolicy::Idle, rm::RmPolicy::Rm3};
  grid.qos_alphas = {0.0};
  ServiceConfig config;
  config.arrivals = 400;
  config.seed = 2020;

  const ServiceResult result = run_service(db, grid, config);
  const std::uint64_t fingerprint = service_fingerprint(
      grid, config,
      workload::simdb_fingerprint(db.suite(), db.system(),
                                  db.phase_options()));

  const std::string golden_path =
      std::string(QOSRM_TEST_DATA_DIR) + "/golden_service_report.json";
  const std::string golden = slurp(golden_path);
  ASSERT_FALSE(golden.empty()) << golden_path;

  EXPECT_EQ(service_report_json(result.rows, grid.shape(), fingerprint), golden)
      << "service report drifted from " << golden_path
      << "\nIf the change is intentional, regenerate the golden file (see "
         "the header of this test) and justify the numerical diff in the "
         "same commit.";

  const std::string rows_path =
      std::string(QOSRM_TEST_DATA_DIR) + "/golden_service_rows.csv";
  const std::string golden_rows = slurp(rows_path);
  ASSERT_FALSE(golden_rows.empty()) << rows_path;
  EXPECT_EQ(service_rows_csv(result.rows), golden_rows)
      << "service rows CSV drifted from " << rows_path;
}

}  // namespace
}  // namespace qosrm::rmsim
