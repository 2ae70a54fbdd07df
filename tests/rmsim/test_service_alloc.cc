// Pins the colocation-service steady-state event loop at ZERO heap
// allocations per event: after one warm pass has grown every buffer (queue
// ring, violation histogram, counter snapshots, RM workspaces), reset() +
// step() must never touch the heap again. The suite runs the full
// {RM policy x admission} plane at 2 cores and the service-loop benchmark
// configurations at 4, 8 and 16 cores and at 4 cores x 4 bandwidth shares.
//
// The count is taken through the counting allocator linked into this binary
// (tests/support/counting_alloc.hh); only the measured loop is bracketed,
// so gtest's own allocations are excluded.
//
// Builds the full simulation database (tests/support/shared_db.hh), so the
// binary carries LABELS slow.
#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "rmsim/service.hh"
#include "support/counting_alloc.hh"
#include "support/shared_db.hh"
#include "workload/arrival_gen.hh"

namespace qosrm::rmsim {
namespace {

/// Heap allocations of the steady-state loop of one engine: a warm pass
/// grows every buffer to its high-water capacity and fills every RM
/// per-core curve cache; then two full passes, each rewound by reset(), are
/// counted, so the measurement covers every event of the trace and the
/// wrap-around.
std::uint64_t steady_state_allocations(const workload::SimDb& db,
                                       const ServiceConfig& config,
                                       const ServicePoint& point) {
  ServiceEngine engine(db, config, point);
  (void)engine.run();
  engine.reset();

  const std::uint64_t before = qosrm::testing::allocation_count();
  for (int pass = 0; pass < 2; ++pass) {
    while (engine.step()) {
    }
    engine.reset();
  }
  return qosrm::testing::allocation_count() - before;
}

/// A gtest-safe (alphanumeric) admission-policy name.
std::string admission_label(AdmissionPolicy admission) {
  std::string label = admission_policy_name(admission);
  std::replace(label.begin(), label.end(), '-', '_');
  return label;
}

constexpr const char* kLeakMessage =
    " heap allocations leaked into the steady-state service loop (required: "
    "zero per event after warmup)";

class ServiceAllocPolicy
    : public ::testing::TestWithParam<std::tuple<rm::RmPolicy, AdmissionPolicy>> {
};

TEST_P(ServiceAllocPolicy, SteadyStateLoopIsAllocationFree) {
  ServiceConfig config;
  config.arrivals = 256;
  config.seed = 7;
  config.demand_min = 10;
  config.demand_max = 40;
  ServicePoint point;
  point.policy = std::get<0>(GetParam());
  point.admission = std::get<1>(GetParam());
  point.load = 2.0;  // overload: the queue-scan admission paths must engage
  const std::uint64_t allocations =
      steady_state_allocations(qosrm::testing::shared_db(2), config, point);
  EXPECT_EQ(allocations, 0u) << allocations << kLeakMessage;
}

// The zero-alloc invariant covers the full {RM policy x admission policy}
// plane: the paper's RM3 and each classic partitioning-only baseline (their
// workspace buffers must be pre-warmed just like the optimizer's), each
// under every admission discipline (the sdf/qos-aware queue scans and the
// rejection predicate run inside the steady-state loop).
INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ServiceAllocPolicy,
    ::testing::Combine(::testing::Values(rm::RmPolicy::Rm3, rm::RmPolicy::Ucp,
                                         rm::RmPolicy::Fcp,
                                         rm::RmPolicy::ClassPart),
                       ::testing::Values(AdmissionPolicy::Fifo,
                                         AdmissionPolicy::Sdf,
                                         AdmissionPolicy::QosAware)),
    [](const auto& info) {
      return std::string(rm::rm_policy_name(std::get<0>(info.param))) + "_" +
             admission_label(std::get<1>(info.param));
    });

/// A service-loop benchmark configuration: RM policy, core count, bandwidth
/// shares per core and admission policy.
using StepConfig = std::tuple<rm::RmPolicy, int, int, AdmissionPolicy>;

class ServiceAllocConfig : public ::testing::TestWithParam<StepConfig> {};

TEST_P(ServiceAllocConfig, SteadyStateLoopIsAllocationFree) {
  const auto [policy, cores, bw_shares, admission] = GetParam();
  ServiceConfig config;
  config.arrivals = 512;
  ServicePoint point;
  point.policy = policy;
  point.admission = admission;
  if (admission != AdmissionPolicy::Fifo) {
    point.load = 2.0;  // overload so the non-FIFO queue disciplines engage
  }
  const std::uint64_t allocations = steady_state_allocations(
      qosrm::testing::shared_db(cores, bw_shares), config, point);
  EXPECT_EQ(allocations, 0u) << allocations << kLeakMessage;
}

std::string step_config_name(
    const ::testing::TestParamInfo<StepConfig>& info) {
  const auto [policy, cores, bw_shares, admission] = info.param;
  return std::string(rm::rm_policy_name(policy)) + "_c" +
         std::to_string(cores) + "_b" + std::to_string(bw_shares) + "_" +
         admission_label(admission);
}

// Idle and RM3 at 4, 8 and 16 cores: 512 arrivals, FIFO, load 0.8.
INSTANTIATE_TEST_SUITE_P(
    CoreCounts, ServiceAllocConfig,
    ::testing::Combine(::testing::Values(rm::RmPolicy::Idle, rm::RmPolicy::Rm3),
                       ::testing::Values(4, 8, 16), ::testing::Values(1),
                       ::testing::Values(AdmissionPolicy::Fifo)),
    step_config_name);

// The 2-D (ways x shares) RM path: 4 cores x 4 bandwidth shares per core.
INSTANTIATE_TEST_SUITE_P(
    BandwidthShares, ServiceAllocConfig,
    ::testing::Values(StepConfig{rm::RmPolicy::Rm3, 4, 4,
                                 AdmissionPolicy::Fifo}),
    step_config_name);

// The queue-scan admission policies under overload (load 2.0).
INSTANTIATE_TEST_SUITE_P(
    Admission, ServiceAllocConfig,
    ::testing::Combine(::testing::Values(rm::RmPolicy::Rm3),
                       ::testing::Values(4), ::testing::Values(1),
                       ::testing::Values(AdmissionPolicy::Sdf,
                                         AdmissionPolicy::QosAware)),
    step_config_name);

TEST(ServiceAlloc, ArrivalRegenerationIsAllocationFree) {
  for (const workload::ArrivalPattern pattern :
       {workload::ArrivalPattern::Poisson, workload::ArrivalPattern::Bursty,
        workload::ArrivalPattern::Diurnal}) {
    workload::ArrivalGenOptions options;
    options.pattern = pattern;
    options.count = 2048;
    workload::ArrivalTrace trace;
    workload::generate_arrivals_into(options, &trace);  // grow to capacity

    const std::uint64_t before = qosrm::testing::allocation_count();
    for (int i = 0; i < 10; ++i) {
      workload::generate_arrivals_into(options, &trace);
    }
    const std::uint64_t after = qosrm::testing::allocation_count();
    EXPECT_EQ(after - before, 0u)
        << workload::arrival_pattern_name(pattern);
  }
}

}  // namespace
}  // namespace qosrm::rmsim
