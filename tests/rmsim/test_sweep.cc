#include "rmsim/sweep.hh"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "rmsim/report.hh"
#include "support/shared_db.hh"
#include "workload/db_io.hh"
#include "workload/workload_gen.hh"

namespace qosrm::rmsim {
namespace {

std::vector<workload::WorkloadMix> two_core_mixes(std::size_t count) {
  const workload::SimDb& db = testing::shared_db(2);
  workload::WorkloadGenOptions gen;
  gen.cores = 2;
  gen.per_scenario = 1;
  std::vector<workload::WorkloadMix> mixes =
      workload::generate_workloads(db.suite(), gen);
  EXPECT_GE(mixes.size(), count);
  mixes.resize(count);
  return mixes;
}

SweepGrid small_grid(std::size_t mixes) {
  SweepGrid grid;
  grid.mixes = two_core_mixes(mixes);
  grid.policies = {rm::RmPolicy::Idle, rm::RmPolicy::Rm1, rm::RmPolicy::Rm2,
                   rm::RmPolicy::Rm3};
  grid.models = {rm::PerfModelKind::Model3};
  grid.qos_alphas = {0.0};
  return grid;
}

SweepResult run_sweep(const SweepGrid& grid, int threads) {
  SweepOptions options;
  options.threads = threads;
  SweepRunner runner(testing::shared_db(2), options);
  return runner.run(grid);
}

/// Bit-for-bit comparison of two runs (no tolerances anywhere: the sweep
/// must be exactly deterministic).
void expect_runs_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.uncore_energy_j, b.uncore_energy_j);
  EXPECT_EQ(a.wall_time_s, b.wall_time_s);
  EXPECT_EQ(a.rm_invocations, b.rm_invocations);
  EXPECT_EQ(a.rm_ops, b.rm_ops);
  ASSERT_EQ(a.cores.size(), b.cores.size());
  for (std::size_t k = 0; k < a.cores.size(); ++k) {
    EXPECT_EQ(a.cores[k].app, b.cores[k].app);
    EXPECT_EQ(a.cores[k].counted_energy_j, b.cores[k].counted_energy_j);
    EXPECT_EQ(a.cores[k].executed_instructions, b.cores[k].executed_instructions);
    EXPECT_EQ(a.cores[k].intervals, b.cores[k].intervals);
    EXPECT_EQ(a.cores[k].qos_violations, b.cores[k].qos_violations);
    EXPECT_EQ(a.cores[k].violation_sum, b.cores[k].violation_sum);
    EXPECT_EQ(a.cores[k].violation_max, b.cores[k].violation_max);
  }
}

TEST(Sweep, GridSizeAndRowOrder) {
  const SweepGrid grid = small_grid(2);
  EXPECT_EQ(grid.size(), 8u);

  const SweepResult result = run_sweep(grid, 1);
  ASSERT_EQ(result.rows.size(), 8u);
  // Mix-minor, policy next: rows 0,1 are Idle on mix 0,1; rows 2,3 Rm1; ...
  for (std::size_t pi = 0; pi < 4; ++pi) {
    for (std::size_t mi = 0; mi < 2; ++mi) {
      const SweepRow& row = result.rows[2 * pi + mi];
      EXPECT_EQ(row.policy, grid.policies[pi]);
      EXPECT_EQ(row.workload, grid.mixes[mi].name);
    }
  }
}

TEST(Sweep, DeterministicAcrossThreadCounts) {
  const SweepGrid grid = small_grid(2);
  const SweepResult serial = run_sweep(grid, 1);
  const SweepResult parallel = run_sweep(grid, 4);

  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(serial.rows[i].workload, parallel.rows[i].workload);
    EXPECT_EQ(serial.rows[i].policy, parallel.rows[i].policy);
    EXPECT_EQ(serial.rows[i].result.savings, parallel.rows[i].result.savings);
    expect_runs_identical(serial.rows[i].result.run, parallel.rows[i].result.run);
  }
  ASSERT_EQ(serial.aggregates.size(), parallel.aggregates.size());
  for (std::size_t i = 0; i < serial.aggregates.size(); ++i) {
    EXPECT_EQ(serial.aggregates[i].weighted_savings,
              parallel.aggregates[i].weighted_savings);
    EXPECT_EQ(serial.aggregates[i].mean_savings,
              parallel.aggregates[i].mean_savings);
    EXPECT_EQ(serial.aggregates[i].mean_violation_rate,
              parallel.aggregates[i].mean_violation_rate);
  }
}

TEST(Sweep, HugeThreadCountIsCappedAtTheRowCount) {
  // A pool is never wider than its work: a million requested threads must
  // run (not die spawning them) and give the serial rows bit for bit.
  const SweepGrid grid = small_grid(2);
  const SweepResult serial = run_sweep(grid, 1);
  const SweepResult huge = run_sweep(grid, 1'000'000);
  ASSERT_EQ(serial.rows.size(), huge.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(serial.rows[i].result.savings, huge.rows[i].result.savings);
    expect_runs_identical(serial.rows[i].result.run, huge.rows[i].result.run);
  }
}

TEST(Sweep, CsvBytesIdenticalAcrossThreadCounts) {
  const SweepGrid grid = small_grid(2);
  const std::string bytes1 = sweep_rows_csv(run_sweep(grid, 1));
  EXPECT_FALSE(bytes1.empty());
  EXPECT_EQ(bytes1, sweep_rows_csv(run_sweep(grid, 4)));
}

TEST(Sweep, Rm3RowMatchesDirectExperimentRun) {
  const SweepGrid grid = small_grid(2);
  const SweepResult result = run_sweep(grid, 4);

  ExperimentRunner direct(testing::shared_db(2));
  rm::RmConfig config;
  config.policy = rm::RmPolicy::Rm3;
  config.model = rm::PerfModelKind::Model3;

  for (std::size_t mi = 0; mi < grid.mixes.size(); ++mi) {
    const SavingsResult expected = direct.run(grid.mixes[mi], config);
    const SweepRow& row = result.rows[3 * grid.mixes.size() + mi];  // Rm3 block
    ASSERT_EQ(row.policy, rm::RmPolicy::Rm3);
    EXPECT_EQ(row.result.savings, expected.savings);
    expect_runs_identical(row.result.run, expected.run);
  }
}

TEST(Sweep, LaneMemoRowsMatchDirectExperimentRuns) {
  // A lane lends one outcome memo to the managers of the rows it runs; every
  // Model3 RM1-RM3 row, under two alphas, must still equal the run of a
  // manager with its own memo, on one lane and on three.
  SweepGrid grid;
  grid.mixes = two_core_mixes(4);
  grid.policies = {rm::RmPolicy::Rm1, rm::RmPolicy::Rm2, rm::RmPolicy::Rm3};
  grid.models = {rm::PerfModelKind::Model3};
  grid.qos_alphas = {0.0, 1.1};
  const GridShape shape = grid.shape();
  std::vector<std::unique_ptr<ExperimentRunner>> direct;  // one per alpha
  for (const double alpha : grid.qos_alphas) {
    SimOptions sim;
    sim.qos_alpha_override = alpha;
    direct.push_back(std::make_unique<ExperimentRunner>(testing::shared_db(2), sim));
  }
  std::vector<SavingsResult> expected;
  for (std::size_t idx = 0; idx < shape.size(); ++idx) {
    const GridCell c = shape.cell(idx);
    expected.push_back(direct[c.alpha]->run(
        grid.mixes[c.mix], rm_config_for(grid.policies[c.policy], grid.models[c.model])));
  }
  for (const int threads : {1, 3}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const SweepResult result = run_sweep(grid, threads);
    ASSERT_EQ(result.rows.size(), shape.size());
    for (std::size_t idx = 0; idx < shape.size(); ++idx) {
      SCOPED_TRACE("row " + std::to_string(idx));
      EXPECT_EQ(result.rows[idx].result.savings, expected[idx].savings);
      expect_runs_identical(result.rows[idx].result.run, expected[idx].run);
    }
  }
}

TEST(Sweep, IdleReferenceComputedOncePerMixAndAlpha) {
  SweepGrid grid = small_grid(2);
  EXPECT_EQ(run_sweep(grid, 4).idle_computations, grid.mixes.size());

  // A second alpha gets its own simulator options, hence its own references.
  grid.policies = {rm::RmPolicy::Idle, rm::RmPolicy::Rm3};
  grid.qos_alphas = {0.0, 1.1};
  EXPECT_EQ(run_sweep(grid, 4).idle_computations, 2 * grid.mixes.size());
}

TEST(Sweep, IdleRowsHaveExactlyZeroSavings) {
  const SweepResult result = run_sweep(small_grid(2), 4);
  for (const SweepRow& row : result.rows) {
    if (row.policy == rm::RmPolicy::Idle) {
      EXPECT_EQ(row.result.savings, 0.0) << row.workload;
    }
  }
  ASSERT_FALSE(result.aggregates.empty());
  EXPECT_EQ(result.aggregates[0].policy, rm::RmPolicy::Idle);
  EXPECT_EQ(result.aggregates[0].weighted_savings, 0.0);
  EXPECT_EQ(result.aggregates[0].mean_savings, 0.0);
}

TEST(Sweep, BaselinePoliciesProduceRowsDeterministically) {
  // The classic baselines ride the same policy axis as the RM variants:
  // rows appear in grid order and the sweep stays byte-identical across
  // thread counts (the classpart classifier and both greedy partitioners
  // must be pure functions of the snapshots).
  SweepGrid grid;
  grid.mixes = two_core_mixes(2);
  grid.policies = {rm::RmPolicy::Idle, rm::RmPolicy::Ucp, rm::RmPolicy::Fcp,
                   rm::RmPolicy::ClassPart};
  grid.models = {rm::PerfModelKind::Model3};
  grid.qos_alphas = {0.0};

  const SweepResult serial = run_sweep(grid, 1);
  const SweepResult parallel = run_sweep(grid, 4);
  ASSERT_EQ(serial.rows.size(), 8u);
  for (std::size_t pi = 0; pi < 4; ++pi) {
    for (std::size_t mi = 0; mi < 2; ++mi) {
      const SweepRow& row = serial.rows[2 * pi + mi];
      EXPECT_EQ(row.policy, grid.policies[pi]);
      // Partitioning-only baselines run real interval simulations: every row
      // must carry RM work and a full run.
      if (row.policy != rm::RmPolicy::Idle) {
        EXPECT_GT(row.result.run.rm_invocations, 0u);
        EXPECT_GT(row.result.run.rm_ops, 0u);
      }
    }
  }
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(serial.rows[i].result.savings, parallel.rows[i].result.savings);
    expect_runs_identical(serial.rows[i].result.run, parallel.rows[i].result.run);
  }
}

std::uint64_t grid_fingerprint(const SweepGrid& grid) {
  const workload::SimDb& db = testing::shared_db(2);
  return sweep_fingerprint(
      grid, SimOptions{},
      workload::simdb_fingerprint(db.suite(), db.system(), db.phase_options()));
}

TEST(Sweep, FingerprintSeparatesDifferentSweeps) {
  const SweepGrid grid = small_grid(4);
  const std::uint64_t fp = grid_fingerprint(grid);

  SweepGrid other = grid;
  other.qos_alphas = {1.1};
  EXPECT_NE(grid_fingerprint(other), fp);

  other = grid;
  other.policies = {rm::RmPolicy::Rm3};
  EXPECT_NE(grid_fingerprint(other), fp);

  other = grid;
  other.mixes.pop_back();
  EXPECT_NE(grid_fingerprint(other), fp);

  SimOptions no_overheads;
  no_overheads.model_overheads = false;
  const workload::SimDb& db = testing::shared_db(2);
  const std::uint64_t db_fp = workload::simdb_fingerprint(
      db.suite(), db.system(), db.phase_options());
  EXPECT_NE(sweep_fingerprint(grid, no_overheads, db_fp), fp);
  EXPECT_NE(sweep_fingerprint(grid, SimOptions{}, db_fp ^ 1), fp);
}

TEST(SweepParse, PoliciesModelsAlphas) {
  std::string error;
  std::vector<rm::RmPolicy> policies;
  ASSERT_TRUE(try_parse_policies("idle,rm1,rm2,rm3,ucp,fcp,classpart",
                                 &policies, &error))
      << error;
  ASSERT_EQ(policies.size(), 7u);
  EXPECT_EQ(policies[0], rm::RmPolicy::Idle);
  EXPECT_EQ(policies[3], rm::RmPolicy::Rm3);
  EXPECT_EQ(policies[4], rm::RmPolicy::Ucp);
  EXPECT_EQ(policies[5], rm::RmPolicy::Fcp);
  EXPECT_EQ(policies[6], rm::RmPolicy::ClassPart);
  EXPECT_STREQ(rm::rm_policy_name(rm::RmPolicy::Ucp), "UCP");
  EXPECT_STREQ(rm::rm_policy_name(rm::RmPolicy::Fcp), "FCP");
  EXPECT_STREQ(rm::rm_policy_name(rm::RmPolicy::ClassPart), "ClassPart");

  std::vector<rm::PerfModelKind> models;
  ASSERT_TRUE(try_parse_models("model1,m2,model3,perfect", &models, &error))
      << error;
  ASSERT_EQ(models.size(), 4u);
  EXPECT_EQ(models[0], rm::PerfModelKind::Model1);
  EXPECT_EQ(models[1], rm::PerfModelKind::Model2);
  EXPECT_EQ(models[3], rm::PerfModelKind::Perfect);

  std::vector<double> alphas;
  ASSERT_TRUE(try_parse_alphas("0, 1.05,1.1", &alphas, &error)) << error;
  ASSERT_EQ(alphas.size(), 3u);
  EXPECT_EQ(alphas[0], 0.0);
  EXPECT_EQ(alphas[1], 1.05);
  EXPECT_EQ(alphas[2], 1.1);
}

TEST(SweepParse, TryParseAlphasRejectsEmptyListsAndEntries) {
  // "--alphas=" and "--alphas=1," used to parse into empty/short lists and
  // silently sweep a zero-row or shortened grid.
  std::vector<double> out;
  std::string error;
  EXPECT_FALSE(try_parse_alphas("", &out, &error));
  EXPECT_NE(error.find("empty"), std::string::npos) << error;
  EXPECT_FALSE(try_parse_alphas("1,", &out, &error));
  EXPECT_FALSE(try_parse_alphas(",1", &out, &error));
  EXPECT_FALSE(try_parse_alphas("1,,2", &out, &error));
  EXPECT_FALSE(try_parse_alphas(" , ", &out, &error));
  // Valid specs still parse after the rejects.
  ASSERT_TRUE(try_parse_alphas("1.05", &out, &error)) << error;
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 1.05);
}

TEST(SweepParse, TryParseAlphasRejectsSubnormalFactors) {
  // A subnormal alpha underflows the QoS target, so violation magnitudes
  // (and the figure report) became infinite.
  std::vector<double> out;
  std::string error;
  EXPECT_FALSE(try_parse_alphas("1e-320", &out, &error));
  EXPECT_NE(error.find("'1e-320'"), std::string::npos) << error;
  EXPECT_FALSE(try_parse_alphas("1,-0.5", &out, &error));
  EXPECT_FALSE(try_parse_alphas("inf", &out, &error));
  ASSERT_TRUE(try_parse_alphas("0,1e-300,1.1", &out, &error)) << error;
  EXPECT_EQ(out.size(), 3u);
}

TEST(SweepParse, ListParsersRejectBadEntriesNamingFlagAndEntry) {
  std::string error;
  std::vector<rm::RmPolicy> policies;
  for (const char* spec : {"", "rm1,", ",rm1"}) {
    EXPECT_FALSE(try_parse_policies(spec, &policies, &error)) << spec;
    EXPECT_NE(error.find("empty --policies entry"), std::string::npos) << error;
  }
  EXPECT_FALSE(try_parse_policies("lru", &policies, &error));
  EXPECT_NE(error.find("bad --policies entry 'lru'"), std::string::npos)
      << error;

  std::vector<rm::PerfModelKind> models;
  EXPECT_FALSE(try_parse_models("", &models, &error));
  EXPECT_NE(error.find("empty --models entry"), std::string::npos) << error;
  EXPECT_FALSE(try_parse_models("model3,,model1", &models, &error));
  EXPECT_NE(error.find("empty --models entry"), std::string::npos) << error;
  EXPECT_FALSE(try_parse_models("model4", &models, &error, "model"));
  EXPECT_NE(error.find("bad --model entry 'model4'"), std::string::npos)
      << error;

  std::vector<double> alphas;
  EXPECT_FALSE(try_parse_alphas("1,", &alphas, &error));
  EXPECT_NE(error.find("empty --alphas entry"), std::string::npos) << error;

  // A repeated value would run its rows twice; an alias spelling of an
  // earlier model (m3 = model3) or an equal number counts as a repeat.
  EXPECT_FALSE(try_parse_policies("rm1,rm3,rm1", &policies, &error));
  EXPECT_NE(error.find("duplicate --policies entry 'rm1'"), std::string::npos)
      << error;
  EXPECT_FALSE(try_parse_models("m3,model3", &models, &error));
  EXPECT_NE(error.find("duplicate --models entry 'model3' (same value as 'm3'"),
            std::string::npos)
      << error;
  EXPECT_FALSE(try_parse_models("perfect,perfect", &models, &error));
  EXPECT_FALSE(try_parse_alphas("1.1,1.10", &alphas, &error));
  EXPECT_NE(error.find("duplicate --alphas entry '1.10'"), std::string::npos)
      << error;
}

}  // namespace
}  // namespace qosrm::rmsim
