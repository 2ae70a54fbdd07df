// Golden-CSV regression gate: the committed tests/data CSV pins the exact
// numerical output of the 2-core reference sweep (per-scenario=1, seed
// 2020, all policies, Model3, alpha 0 - the same grid CI smoke-runs).
// Future refactors and performance work must reproduce it BYTE for BYTE;
// any intentional result change has to regenerate the golden file in the
// same commit, making result drift visible in review instead of silent.
//
// Regenerate with:
//   ./build/src/sweep_main --cores=2 --per-scenario=1
//       --rows-csv=tests/data/golden_sweep_2core_rows.csv
#include <gtest/gtest.h>

#include <string>

#include "rmsim/report.hh"
#include "rmsim/sweep.hh"
#include "support/shared_db.hh"
#include "support/slurp.hh"
#include "workload/workload_gen.hh"

namespace qosrm::rmsim {
namespace {

using testing::slurp;

TEST(GoldenCsv, TwoCoreReferenceSweepIsByteIdenticalToCommittedGolden) {
  const workload::SimDb& db = testing::shared_db(2);
  workload::WorkloadGenOptions gen;
  gen.cores = 2;
  gen.per_scenario = 1;
  gen.seed = 2020;

  SweepGrid grid;
  grid.mixes = workload::generate_workloads(db.suite(), gen);
  grid.policies = {rm::RmPolicy::Idle, rm::RmPolicy::Rm1, rm::RmPolicy::Rm2,
                   rm::RmPolicy::Rm3};
  grid.models = {rm::PerfModelKind::Model3};
  grid.qos_alphas = {0.0};

  SweepRunner runner(db, {});
  const SweepResult result = runner.run(grid);

  const std::string actual = sweep_rows_csv(result);

  const std::string golden_path =
      std::string(QOSRM_TEST_DATA_DIR) + "/golden_sweep_2core_rows.csv";
  const std::string golden = slurp(golden_path);
  ASSERT_FALSE(golden.empty()) << golden_path;

  EXPECT_EQ(actual, golden)
      << "sweep output drifted from " << golden_path
      << "\nIf the change is intentional, regenerate the golden file (see "
         "the header of this test) and justify the numerical diff in the "
         "same commit.";
}

}  // namespace
}  // namespace qosrm::rmsim
