// Integration tests for the colocation-service engine: metric sanity,
// bit-exact determinism across repeats and thread counts, and the
// queue/rejection edge cases.
//
// Builds the full simulation database (tests/support/shared_db.hh), so the
// whole binary carries LABELS slow.
#include "rmsim/service.hh"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/shared_db.hh"

namespace qosrm::rmsim {
namespace {

/// Small but non-trivial run: enough arrivals to exercise queueing,
/// departures and violations at 2 cores in well under a second per point.
ServiceConfig small_config() {
  ServiceConfig config;
  config.arrivals = 300;
  config.seed = 99;
  config.demand_min = 10;
  config.demand_max = 40;
  return config;
}

ServiceGrid small_grid() {
  ServiceGrid grid;
  grid.patterns = {workload::ArrivalPattern::Poisson,
                   workload::ArrivalPattern::Bursty};
  grid.loads = {0.7};
  grid.admissions = {AdmissionPolicy::Fifo, AdmissionPolicy::Sdf,
                     AdmissionPolicy::QosAware};
  grid.policies = {rm::RmPolicy::Idle, rm::RmPolicy::Rm3};
  grid.qos_alphas = {0.0};
  return grid;
}

void expect_rows_equal(const std::vector<ServiceRow>& a,
                       const std::vector<ServiceRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    EXPECT_EQ(a[i].pattern, b[i].pattern);
    EXPECT_EQ(a[i].load, b[i].load);
    EXPECT_EQ(a[i].admission, b[i].admission);
    EXPECT_EQ(a[i].policy, b[i].policy);
    EXPECT_EQ(a[i].model, b[i].model);
    EXPECT_EQ(a[i].qos_alpha, b[i].qos_alpha);
    const ServiceMetrics& ma = a[i].metrics;
    const ServiceMetrics& mb = b[i].metrics;
    EXPECT_EQ(ma.arrivals, mb.arrivals);
    EXPECT_EQ(ma.served, mb.served);
    EXPECT_EQ(ma.rejected, mb.rejected);
    EXPECT_EQ(ma.qos_rejected, mb.qos_rejected);
    EXPECT_EQ(ma.intervals, mb.intervals);
    EXPECT_EQ(ma.violations, mb.violations);
    // Bit-exact, not approximate: determinism is the contract under test.
    EXPECT_EQ(ma.violation_rate, mb.violation_rate);
    EXPECT_EQ(ma.p50_violation, mb.p50_violation);
    EXPECT_EQ(ma.p95_violation, mb.p95_violation);
    EXPECT_EQ(ma.p99_violation, mb.p99_violation);
    EXPECT_EQ(ma.max_violation, mb.max_violation);
    EXPECT_EQ(ma.mean_violation, mb.mean_violation);
    EXPECT_EQ(ma.energy_total_j, mb.energy_total_j);
    EXPECT_EQ(ma.uncore_energy_j, mb.uncore_energy_j);
    EXPECT_EQ(ma.energy_per_app_j, mb.energy_per_app_j);
    EXPECT_EQ(ma.rm_invocations, mb.rm_invocations);
    EXPECT_EQ(ma.rm_ops, mb.rm_ops);
    EXPECT_EQ(ma.decisions_per_sec, mb.decisions_per_sec);
    EXPECT_EQ(ma.occupancy, mb.occupancy);
    EXPECT_EQ(ma.mean_wait_s, mb.mean_wait_s);
    EXPECT_EQ(ma.wall_time_s, mb.wall_time_s);
  }
}

TEST(Service, MetricsAreSane) {
  const workload::SimDb& db = qosrm::testing::shared_db(2);
  ServicePoint point;
  point.load = 0.7;
  ServiceEngine engine(db, small_config(), point);
  const ServiceMetrics m = engine.run();

  EXPECT_EQ(m.arrivals, small_config().arrivals);
  EXPECT_EQ(m.arrivals, m.served + m.rejected);
  EXPECT_GT(m.served, 0u);
  EXPECT_GT(m.intervals, 0u);
  EXPECT_GT(m.wall_time_s, 0.0);
  EXPECT_GT(m.energy_total_j, 0.0);
  EXPECT_GT(m.uncore_energy_j, 0.0);
  EXPECT_LT(m.uncore_energy_j, m.energy_total_j);
  EXPECT_GT(m.energy_per_app_j, 0.0);
  EXPECT_GT(m.occupancy, 0.0);
  EXPECT_LE(m.occupancy, 1.0);
  EXPECT_GE(m.mean_wait_s, 0.0);
  EXPECT_GT(m.rm_invocations, 0u);
  EXPECT_GT(m.decisions_per_sec, 0.0);
  EXPECT_LE(m.violations, m.intervals);
  if (m.violations > 0) {
    EXPECT_GT(m.p99_violation, 0.0);
    EXPECT_GE(m.p99_violation, m.p50_violation);
    EXPECT_GE(m.max_violation, m.p99_violation);
  }
}

TEST(Service, RunIsRepeatable) {
  const workload::SimDb& db = qosrm::testing::shared_db(2);
  ServicePoint point;
  point.pattern = workload::ArrivalPattern::Bursty;
  ServiceEngine engine(db, small_config(), point);
  const ServiceMetrics first = engine.run();
  const ServiceMetrics second = engine.run();  // reset() + replay
  ServiceEngine other(db, small_config(), point);
  const ServiceMetrics fresh = other.run();

  std::vector<ServiceRow> a(1), b(1), c(1);
  a[0].metrics = first;
  b[0].metrics = second;
  c[0].metrics = fresh;
  expect_rows_equal(a, b);
  expect_rows_equal(a, c);
}

TEST(Service, ThreadCountDoesNotChangeRows) {
  const workload::SimDb& db = qosrm::testing::shared_db(2);
  ServiceOptions serial;
  serial.threads = 1;
  ServiceOptions parallel;
  parallel.threads = 4;
  const ServiceResult a = run_service(db, small_grid(), small_config(), serial);
  const ServiceResult b =
      run_service(db, small_grid(), small_config(), parallel);
  ASSERT_EQ(a.rows.size(), small_grid().size());
  expect_rows_equal(a.rows, b.rows);
}

TEST(Service, HugeThreadCountIsCappedAtTheRowCount) {
  // A pool is never wider than its work: a million requested threads must
  // run (not die spawning them) and give the serial rows bit for bit.
  const workload::SimDb& db = qosrm::testing::shared_db(2);
  ServiceOptions serial;
  serial.threads = 1;
  ServiceOptions huge;
  huge.threads = 1'000'000;
  const ServiceResult a = run_service(db, small_grid(), small_config(), serial);
  const ServiceResult b = run_service(db, small_grid(), small_config(), huge);
  expect_rows_equal(a.rows, b.rows);
}

/// A knee-shaped grid at 4 cores (two patterns, under- to overloaded, all
/// three admission policies, RM3) with a second alpha, so a lane's memo is
/// rescoped mid-run, shrunk to a fast arrival count.
ServiceGrid small_knee_grid() {
  ServiceGrid grid;
  grid.patterns = {workload::ArrivalPattern::Poisson,
                   workload::ArrivalPattern::Bursty};
  grid.loads = {0.6, 1.2, 2.1};
  grid.admissions = {AdmissionPolicy::Fifo, AdmissionPolicy::Sdf,
                     AdmissionPolicy::QosAware};
  grid.policies = {rm::RmPolicy::Rm3};
  grid.qos_alphas = {0.0, 1.1};
  return grid;
}

ServiceConfig small_knee_config() {
  ServiceConfig config;
  config.arrivals = 120;
  config.seed = 2020;
  return config;
}

TEST(Service, LaneMemoRowsMatchStandaloneEngines) {
  // run_service lends each lane's memo to every engine of the lane; each
  // row must still be exactly what an engine with its own memo measures,
  // on one lane and on three (which split the rows unevenly, so the lanes'
  // memos see different row subsets).
  const workload::SimDb& db = qosrm::testing::shared_db(4);
  const ServiceGrid grid = small_knee_grid();
  const ServiceConfig config = small_knee_config();
  std::vector<ServiceRow> standalone(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const ServicePoint point = grid.point(i);
    standalone[i] = {point.pattern, point.load, point.admission, point.policy,
                     config.model, point.qos_alpha,
                     ServiceEngine(db, config, point).run()};
  }
  for (const int threads : {1, 3}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ServiceOptions options;
    options.threads = threads;
    expect_rows_equal(run_service(db, grid, config, options).rows, standalone);
  }
}

TEST(Service, EnginesSharingAMemoOptimizeEachCellOnce) {
  // Engines built one after another on one memo reach the memo as often as
  // standalone ones, but optimize fewer cells: every cell an earlier engine
  // of the same configuration optimized is a hit.
  const workload::SimDb& db = qosrm::testing::shared_db(4);
  const ServiceGrid grid = small_knee_grid();
  const ServiceConfig config = small_knee_config();
  rm::OutcomeMemo memo;
  rm::RmInvokeStats own, shared;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const ServicePoint point = grid.point(i);
    ServiceEngine alone(db, config, point);
    ServiceEngine lent(db, config, point, &memo);
    std::vector<ServiceRow> a(1), b(1);
    a[0].metrics = alone.run();
    b[0].metrics = lent.run();
    expect_rows_equal(a, b);
    own.local_runs += alone.rm_stats().local_runs;
    own.memo_hits += alone.rm_stats().memo_hits;
    shared.local_runs += lent.rm_stats().local_runs;
    shared.memo_hits += lent.rm_stats().memo_hits;
  }
  EXPECT_EQ(own.local_runs + own.memo_hits, shared.local_runs + shared.memo_hits);
  EXPECT_LT(2 * shared.local_runs, own.local_runs);
}

TEST(Service, IdlePolicyNeverInvokesTheRm) {
  const workload::SimDb& db = qosrm::testing::shared_db(2);
  ServicePoint point;
  point.policy = rm::RmPolicy::Idle;
  ServiceEngine engine(db, small_config(), point);
  const ServiceMetrics m = engine.run();
  EXPECT_EQ(m.rm_invocations, 0u);
  EXPECT_EQ(m.rm_ops, 0u);
  EXPECT_EQ(m.decisions_per_sec, 0.0);
  EXPECT_GT(m.served, 0u);
}

TEST(Service, FullQueueRejectsInsteadOfLosingArrivals) {
  const workload::SimDb& db = qosrm::testing::shared_db(2);
  ServiceConfig config = small_config();
  config.queue_capacity = 1;
  ServicePoint point;
  point.load = 4.0;  // heavy overload: the 1-slot queue must overflow
  ServiceEngine engine(db, config, point);
  const ServiceMetrics m = engine.run();
  EXPECT_GT(m.rejected, 0u);
  EXPECT_EQ(m.arrivals, m.served + m.rejected);
}

TEST(Service, FingerprintSeparatesDifferentRuns) {
  const ServiceGrid grid = small_grid();
  const ServiceConfig config = small_config();
  const std::uint64_t fp = service_fingerprint(grid, config, 42);
  EXPECT_EQ(fp, service_fingerprint(grid, config, 42));
  EXPECT_NE(fp, service_fingerprint(grid, config, 43));

  ServiceConfig other = config;
  other.seed = config.seed + 1;
  EXPECT_NE(fp, service_fingerprint(grid, other, 42));
  other = config;
  other.queue_capacity = 7;
  EXPECT_NE(fp, service_fingerprint(grid, other, 42));

  ServiceGrid wider = grid;
  wider.loads.push_back(1.1);
  EXPECT_NE(fp, service_fingerprint(wider, config, 42));

  ServiceGrid more_admissions = grid;
  more_admissions.admissions = {AdmissionPolicy::Fifo};
  EXPECT_NE(fp, service_fingerprint(more_admissions, config, 42));
}

TEST(Service, AdmissionCellsConserveArrivalsOnIdenticalTraces) {
  // All admission policies of one (pattern, load) face byte-identical
  // arrival traces: same arrival count, and arrivals = served + rejected
  // under every policy - an admission policy may turn arrivals away, never
  // lose them.
  const workload::SimDb& db = qosrm::testing::shared_db(2);
  ServiceConfig config = small_config();
  config.queue_capacity = 8;
  for (const AdmissionPolicy admission :
       {AdmissionPolicy::Fifo, AdmissionPolicy::Sdf,
        AdmissionPolicy::QosAware}) {
    SCOPED_TRACE(admission_policy_name(admission));
    ServicePoint point;
    point.load = 3.0;  // overload so the queue and rejection paths engage
    point.admission = admission;
    ServiceEngine engine(db, config, point);
    const ServiceMetrics m = engine.run();
    EXPECT_EQ(m.arrivals, config.arrivals);
    EXPECT_EQ(m.arrivals, m.served + m.rejected);
    EXPECT_LE(m.qos_rejected, m.rejected);
    if (admission != AdmissionPolicy::QosAware) {
      EXPECT_EQ(m.qos_rejected, 0u);  // only qos-aware rejects by predicate
    }
  }
}

TEST(Service, SdfReordersTheQueueUnderOverload) {
  // Under heavy overload smallest-demand-first must release the queue in a
  // different order than FIFO - the fixed-seed runs are deterministic, so a
  // genuine behavioural difference shows up as different mean queueing
  // delay (and equal arrival accounting, per the test above).
  const workload::SimDb& db = qosrm::testing::shared_db(2);
  ServiceConfig config = small_config();
  config.queue_capacity = 64;
  ServicePoint fifo;
  fifo.load = 3.0;
  fifo.admission = AdmissionPolicy::Fifo;
  ServicePoint sdf = fifo;
  sdf.admission = AdmissionPolicy::Sdf;
  const ServiceMetrics m_fifo = ServiceEngine(db, config, fifo).run();
  const ServiceMetrics m_sdf = ServiceEngine(db, config, sdf).run();
  EXPECT_EQ(m_fifo.arrivals, m_sdf.arrivals);
  EXPECT_NE(m_fifo.mean_wait_s, m_sdf.mean_wait_s);
}

// Counters are filled only where something reads them. On a knee-shaped
// row (4 cores, overloaded, the knee grid's 400 arrivals) an RM2/RM3
// manager fills exactly once per LocalOptimizer run: a same-cell replay or a
// memo hit that filled counters would break the equality. A baseline policy
// fills every core it refreshes, the invoking core at every invocation.
TEST(Service, CountersAreFilledOnlyForLocalRunsOnAKneeRow) {
  const workload::SimDb& db = qosrm::testing::shared_db(4);
  ServiceConfig config;
  config.arrivals = 400;
  config.seed = 2020;
  for (const rm::RmPolicy policy : {rm::RmPolicy::Rm2, rm::RmPolicy::Rm3}) {
    for (const rm::PerfModelKind model :
         {rm::PerfModelKind::Model3, rm::PerfModelKind::Perfect}) {
      config.model = model;
      ServicePoint point;
      point.load = 1.5;
      point.policy = policy;
      ServiceEngine engine(db, config, point);
      const ServiceMetrics m = engine.run();
      const rm::RmInvokeStats& stats = engine.rm_stats();
      const std::string what = std::string(rm::rm_policy_name(policy)) +
                               (model == rm::PerfModelKind::Perfect ? " Perfect"
                                                                    : " Model3");
      EXPECT_EQ(stats.invocations, m.rm_invocations) << what;
      EXPECT_GT(stats.local_runs, 0u) << what;
      EXPECT_EQ(stats.counter_fills, stats.local_runs) << what;
      if (model == rm::PerfModelKind::Model3) {
        EXPECT_GT(stats.cell_replays, 0u) << what;
        EXPECT_GT(stats.memo_hits, 0u) << what;
        EXPECT_LT(stats.counter_fills * 4, stats.invocations) << what;
      }
    }
  }
  config.model = rm::PerfModelKind::Model3;
  ServicePoint ucp;
  ucp.load = 1.5;
  ucp.policy = rm::RmPolicy::Ucp;
  ServiceEngine engine(db, config, ucp);
  (void)engine.run();
  EXPECT_EQ(engine.rm_stats().local_runs, 0u);
  EXPECT_GE(engine.rm_stats().counter_fills, engine.rm_stats().invocations);
}

TEST(ServiceDeathTest, ParseAdmissionsRejectsBadSpecs) {
  std::vector<AdmissionPolicy> admissions;
  std::string error;
  for (const char* spec : {"", "fifo,"}) {
    EXPECT_FALSE(try_parse_admissions(spec, &admissions, &error)) << spec;
    EXPECT_NE(error.find("empty --admission entry"), std::string::npos)
        << error;
  }
  for (const char* spec : {"lifo", "qosaware"}) {
    EXPECT_FALSE(try_parse_admissions(spec, &admissions, &error)) << spec;
    EXPECT_NE(error.find("bad --admission entry '" + std::string(spec) + "'"),
              std::string::npos)
        << error;
  }
  EXPECT_FALSE(try_parse_admissions("sdf,fifo,sdf", &admissions, &error));
  EXPECT_NE(error.find("duplicate --admission entry 'sdf'"), std::string::npos)
      << error;
  ASSERT_TRUE(try_parse_admissions("fifo, sdf,qos-aware", &admissions, &error))
      << error;
  ASSERT_EQ(admissions.size(), 3u);
  EXPECT_EQ(admissions[1], AdmissionPolicy::Sdf);
  EXPECT_EQ(admissions[2], AdmissionPolicy::QosAware);
}

TEST(ServiceDeathTest, SimAlphaOverrideIsRejected) {
  // The service takes its alpha from ServicePoint::qos_alpha; a SimOptions
  // override would be silently ignored, and the fingerprint omits it.
  const workload::SimDb& db = qosrm::testing::shared_db(2);
  ServiceConfig config = small_config();
  config.sim.qos_alpha_override = 1.2;
  EXPECT_DEATH({ ServiceEngine engine(db, config, ServicePoint{}); },
               "ServicePoint::qos_alpha");
}

TEST(ServiceDeathTest, ParseLoadsRejectsBadSpecs) {
  std::vector<double> loads;
  std::string error;
  for (const char* spec : {"", "0.8,"}) {
    EXPECT_FALSE(try_parse_loads(spec, &loads, &error)) << spec;
    EXPECT_NE(error.find("empty --loads entry"), std::string::npos) << error;
  }
  for (const char* spec : {"0", "-1", "fast"}) {
    EXPECT_FALSE(try_parse_loads(spec, &loads, &error)) << spec;
    EXPECT_NE(error.find("bad --loads entry '" + std::string(spec) + "'"),
              std::string::npos)
        << error;
  }
  EXPECT_FALSE(try_parse_loads("inf", &loads, &error));
  EXPECT_NE(error.find("bad --loads entry 'inf'"), std::string::npos) << error;
  EXPECT_FALSE(try_parse_loads("0.5,1,1.0", &loads, &error));
  EXPECT_NE(error.find("duplicate --loads entry '1.0' (same value as '1'"),
            std::string::npos)
      << error;
  ASSERT_TRUE(try_parse_loads("0.5, 0.8,1.1", &loads, &error)) << error;
  ASSERT_EQ(loads.size(), 3u);
  EXPECT_EQ(loads[1], 0.8);
}

}  // namespace
}  // namespace qosrm::rmsim
