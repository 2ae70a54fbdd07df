// Pins ResourceManager::invoke at ZERO heap allocations per call after
// warm-up, on the two loops bench/bench_rm_invoke.cc times:
//
//   * clean - BM_RmInvoke: every core re-invokes with unchanged counters
//     (same-cell replay, no DP for RM1-RM3);
//   * dirty - BM_RmInvokeDirty: every call first swaps the invoking core's
//     counters between two phases of its app, so its curve is recomputed
//     or served by the interval-outcome memo and its tree path recombined.
//
// Both run for the paper's RM1-RM3 and the UCP / FCP / ClassPart baselines
// at 2, 4, 8 and 16 cores (ways only) and at 4 cores x 4 bandwidth shares.
// The warm-up visits every cell a loop will see, so a memo entry created on
// the first sight of a cell is warm-up, not steady state.
//
// The count is taken through the counting allocator linked into this binary
// (tests/support/counting_alloc.hh), and only the measured loops are
// bracketed, so gtest's own allocations are excluded.
//
// Builds the full simulation database (tests/support/shared_db.hh), so the
// binary carries LABELS slow.
#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "rm/resource_manager.hh"
#include "rmsim/snapshot.hh"
#include "support/counting_alloc.hh"
#include "support/shared_db.hh"

namespace qosrm::rm {
namespace {

constexpr std::array<RmPolicy, 6> kPolicies = {
    RmPolicy::Rm1, RmPolicy::Rm2, RmPolicy::Rm3,
    RmPolicy::Ucp, RmPolicy::Fcp, RmPolicy::ClassPart};

/// Measured calls per loop, in laps over the cores. Even, so the dirty loop
/// ends every core on the cell it started from.
constexpr int kLaps = 4;

/// The benchmark's mix: cache-sensitive, streaming and CPU-bound apps, each
/// in phase `phase` (clamped to the app's last phase).
std::vector<CounterSnapshot> mix_snapshots(const workload::SimDb& db, int phase) {
  static const char* const kApps[] = {"mcf", "libquantum", "bwaves",
                                      "xalancbmk", "omnetpp", "perlbench",
                                      "hmmer", "gobmk"};
  const workload::Setting base = workload::baseline_setting(db.system());
  std::vector<CounterSnapshot> snaps;
  for (int k = 0; k < db.system().cores; ++k) {
    const int app = db.suite().index_of(kApps[k % 8]);
    snaps.push_back(rmsim::make_snapshot(
        db, app, std::min(phase, db.num_phases(app) - 1), base));
  }
  return snaps;
}

/// BM_RmInvoke: one warm-up invoke per core, then re-invokes with the same
/// counters. Returns the allocations of the measured calls.
std::uint64_t clean_loop_allocations(const workload::SimDb& db, RmPolicy policy) {
  const int cores = db.system().cores;
  RmConfig cfg;
  cfg.policy = policy;
  ResourceManager manager(cfg, db.system(), db.power());
  const std::vector<CounterSnapshot> snaps = mix_snapshots(db, 0);
  for (int k = 0; k < cores; ++k) (void)manager.invoke(k, snaps);

  const std::uint64_t before = qosrm::testing::allocation_count();
  for (int i = 0; i < kLaps * cores; ++i) (void)manager.invoke(i % cores, snaps);
  return qosrm::testing::allocation_count() - before;
}

/// BM_RmInvokeDirty: every call swaps the invoking core's counters between
/// phases 0 and 1 first; two warm-up laps visit both cells of every core.
std::uint64_t dirty_loop_allocations(const workload::SimDb& db, RmPolicy policy) {
  const int cores = db.system().cores;
  RmConfig cfg;
  cfg.policy = policy;
  ResourceManager manager(cfg, db.system(), db.power());
  std::vector<CounterSnapshot> snaps = mix_snapshots(db, 0);
  std::vector<CounterSnapshot> alt = mix_snapshots(db, 1);
  const auto step = [&](int k) {
    std::swap(snaps[static_cast<std::size_t>(k)], alt[static_cast<std::size_t>(k)]);
    (void)manager.invoke(k, snaps);
  };
  for (int i = 0; i < 2 * cores; ++i) step(i % cores);

  const std::uint64_t before = qosrm::testing::allocation_count();
  for (int i = 0; i < kLaps * cores; ++i) step(i % cores);
  return qosrm::testing::allocation_count() - before;
}

/// (cores, bandwidth shares per core).
class InvokeAlloc : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(InvokeAlloc, SteadyStateInvokeIsAllocationFree) {
  const auto [cores, bw_shares] = GetParam();
  const workload::SimDb& db = qosrm::testing::shared_db(cores, bw_shares);
  for (const RmPolicy policy : kPolicies) {
    EXPECT_EQ(clean_loop_allocations(db, policy), 0u)
        << rm_policy_name(policy) << ": heap allocations in the clean invoke "
        << "loop (required: zero per call after warm-up)";
    EXPECT_EQ(dirty_loop_allocations(db, policy), 0u)
        << rm_policy_name(policy) << ": heap allocations in the dirty invoke "
        << "loop (required: zero per call after warm-up)";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWidths, InvokeAlloc,
    ::testing::Values(std::pair{2, 1}, std::pair{4, 1}, std::pair{8, 1},
                      std::pair{16, 1}, std::pair{4, 4}),
    [](const auto& info) {
      std::string name = "c";
      name.append(std::to_string(info.param.first)).append("b");
      return name.append(std::to_string(info.param.second));
    });

}  // namespace
}  // namespace qosrm::rm
