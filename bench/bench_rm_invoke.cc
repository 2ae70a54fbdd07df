// Google-benchmark coverage of the per-interval-boundary hot path: one
// ResourceManager::invoke (local optimization of the boundary core +
// pairwise-reduction global optimization) and one counter-snapshot build.
// These run once per interval boundary, so their cost is the management
// overhead the paper argues must stay negligible (Section IV-D).
//
// Besides ns/op every benchmark reports allocs/op, the number of heap
// allocations per iteration, counted by tests/support/counting_alloc.cc:
// the invoke path is required to be allocation-free after warmup (see the
// README performance section; tests/rm/test_invoke_alloc.cc gates the same
// loops). CI runs this binary briefly and uploads the JSON so the perf
// trajectory is tracked across PRs.
//
// The simulation database honours QOSRM_DB_CACHE_DIR (same protocol as the
// slow test suites): set it to restore the characterization from a binary
// snapshot instead of paying the multi-second build per run.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/system_config.hh"
#include "common/simd.hh"
#include "power/power_model.hh"
#include "rm/resource_manager.hh"
#include "rmsim/snapshot.hh"
#include "support/counting_alloc.hh"
#include "workload/db_io.hh"
#include "workload/sim_db.hh"

namespace {

using namespace qosrm;

/// One shared database per (core count, bandwidth-share count) - the build
/// is seconds-expensive, and a partitioned-bandwidth table is a genuinely
/// different (wider) evaluation grid with its own cache file.
const workload::SimDb& bench_db(int cores, int bw_shares = 1) {
  static std::map<std::pair<int, int>, std::unique_ptr<workload::SimDb>> dbs;
  const std::pair<int, int> key{cores, bw_shares};
  auto it = dbs.find(key);
  if (it == dbs.end()) {
    arch::SystemConfig system;
    system.cores = cores;
    system.bw = arch::bw_config_for_shares(bw_shares);
    const char* cache_dir = std::getenv("QOSRM_DB_CACHE_DIR");
    const std::string cache_path =
        cache_dir != nullptr
            ? workload::db_cache_path(cache_dir, cores, bw_shares)
            : std::string();
    it = dbs.emplace(key, std::make_unique<workload::SimDb>(workload::warm_simdb(
                              workload::spec_suite(), system,
                              power::PowerModel{}, {}, cache_path)))
             .first;
  }
  return *it->second;
}

/// A representative mix: cache-sensitive, streaming and CPU-bound apps, each
/// in phase `phase` (clamped to the app's last phase).
std::vector<rm::CounterSnapshot> bench_snapshots(const workload::SimDb& db,
                                                 int cores, int phase = 0) {
  static const char* const kApps[] = {"mcf", "libquantum", "bwaves",
                                      "xalancbmk", "omnetpp", "perlbench",
                                      "hmmer", "gobmk"};
  std::vector<rm::CounterSnapshot> snaps;
  const workload::Setting base = workload::baseline_setting(db.system());
  for (int k = 0; k < cores; ++k) {
    const int app = db.suite().index_of(kApps[k % 8]);
    snaps.push_back(rmsim::make_snapshot(
        db, app, std::min(phase, db.num_phases(app) - 1), base));
  }
  return snaps;
}

void report_allocs(benchmark::State& state, std::uint64_t before) {
  const std::uint64_t allocs =
      qosrm::testing::allocation_count() - before;
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
}

/// ResourceManager::invoke at a given (policy, core count, bandwidth-share
/// count). The manager is warmed up with one invocation per core before
/// measurement, so the steady state (every per-core curve cached, workspaces
/// at capacity) is measured. The counters never change, so for RM1-RM3 this
/// is the clean path: every call replays the invoking core's cached cell
/// and skips the global DP (BM_RmInvokeDirty measures the dirty-leaf path).
/// bw_shares=1 is the classic ways-only problem; bw_shares>1 runs the 2-D
/// (ways x shares) DP, which is required to stay allocation-free too (the
/// share axis is deliberately narrow - see arch::bw_config_for_shares).
void BM_RmInvoke(benchmark::State& state) {
  const auto policy = static_cast<rm::RmPolicy>(state.range(0));
  const int cores = static_cast<int>(state.range(1));
  const int bw_shares = static_cast<int>(state.range(2));
  const workload::SimDb& db = bench_db(cores, bw_shares);
  rm::RmConfig cfg;
  cfg.policy = policy;
  cfg.model = rm::PerfModelKind::Model3;
  rm::ResourceManager manager(cfg, db.system(), db.power());
  const auto snaps = bench_snapshots(db, cores);

  for (int k = 0; k < cores; ++k) benchmark::DoNotOptimize(manager.invoke(k, snaps));

  int core = 0;
  const std::uint64_t before = qosrm::testing::allocation_count();
  for (auto _ : state) {
    benchmark::DoNotOptimize(manager.invoke(core, snaps));
    core = (core + 1) % cores;
  }
  report_allocs(state, before);
}
BENCHMARK(BM_RmInvoke)
    ->ArgsProduct({{static_cast<long>(rm::RmPolicy::Rm1),
                    static_cast<long>(rm::RmPolicy::Rm2),
                    static_cast<long>(rm::RmPolicy::Rm3),
                    static_cast<long>(rm::RmPolicy::Ucp),
                    static_cast<long>(rm::RmPolicy::Fcp),
                    static_cast<long>(rm::RmPolicy::ClassPart)},
                   {2, 4, 8, 16},
                   {1}})
    // The 2-D configurations: 4 cores x 4 bandwidth shares per core.
    ->ArgsProduct({{static_cast<long>(rm::RmPolicy::Rm1),
                    static_cast<long>(rm::RmPolicy::Rm2),
                    static_cast<long>(rm::RmPolicy::Rm3)},
                   {4},
                   {4}})
    ->ArgNames({"policy", "cores", "bw_shares"});

/// The dirty-leaf path: like BM_RmInvoke, but every invocation first
/// re-stamps the invoking core's snapshot, key-only, with the other of two
/// phases of its app (as IntervalKernel::next_interval does at a phase
/// change), so each call recomputes (or, with the memo, replays) that core's
/// curve and recombines its root path in the global tree. BM_RmInvoke
/// re-invokes unchanged counters and so measures the clean path (same-cell
/// replay, no DP).
void BM_RmInvokeDirty(benchmark::State& state) {
  const auto policy = static_cast<rm::RmPolicy>(state.range(0));
  const int cores = static_cast<int>(state.range(1));
  const int bw_shares = static_cast<int>(state.range(2));
  const workload::SimDb& db = bench_db(cores, bw_shares);
  rm::RmConfig cfg;
  cfg.policy = policy;
  cfg.model = rm::PerfModelKind::Model3;
  rm::ResourceManager manager(cfg, db.system(), db.power());
  auto snaps = bench_snapshots(db, cores);
  const workload::Setting base = workload::baseline_setting(db.system());
  // The phase each core's snapshot alternates with phase 0 (0 for a
  // one-phase app, whose core then stays clean).
  std::vector<int> alt_phase;
  for (const rm::CounterSnapshot& snap : snaps) {
    alt_phase.push_back(std::min(1, db.num_phases(snap.app) - 1));
  }
  const auto restamp = [&](int k) {
    rm::CounterSnapshot& snap = snaps[static_cast<std::size_t>(k)];
    const int phase = snap.phase == 0 ? alt_phase[static_cast<std::size_t>(k)] : 0;
    rmsim::make_snapshot_into(db, snap.app, phase, base, -1, snap);
  };
  // Two warm-up laps visit both cells of every core, so the interval-outcome
  // memo and every buffer are populated before measurement.
  for (int lap = 0; lap < 2; ++lap) {
    for (int k = 0; k < cores; ++k) {
      restamp(k);
      benchmark::DoNotOptimize(manager.invoke(k, snaps));
    }
  }

  int core = 0;
  const std::uint64_t before = qosrm::testing::allocation_count();
  for (auto _ : state) {
    restamp(core);
    benchmark::DoNotOptimize(manager.invoke(core, snaps));
    if (++core == cores) core = 0;
  }
  report_allocs(state, before);
}
BENCHMARK(BM_RmInvokeDirty)
    ->ArgsProduct({{static_cast<long>(rm::RmPolicy::Rm1),
                    static_cast<long>(rm::RmPolicy::Rm2),
                    static_cast<long>(rm::RmPolicy::Rm3)},
                   {2, 4, 8, 16},
                   {1}})
    ->ArgsProduct({{static_cast<long>(rm::RmPolicy::Rm1),
                    static_cast<long>(rm::RmPolicy::Rm2),
                    static_cast<long>(rm::RmPolicy::Rm3)},
                   {4},
                   {4}})
    ->ArgNames({"policy", "cores", "bw_shares"});

/// Counter-snapshot construction returning a fresh, filled snapshot per
/// call: the key stamp plus rm::fill_counters, the work the RM does on a
/// local run's key-only snapshot.
void BM_MakeSnapshot(benchmark::State& state) {
  const int cores = static_cast<int>(state.range(0));
  const workload::SimDb& db = bench_db(cores);
  const workload::Setting base = workload::baseline_setting(db.system());
  const int app = db.suite().index_of("mcf");
  rm::CounterSnapshot snap = rmsim::make_snapshot(db, app, 0, base);

  const std::uint64_t before = qosrm::testing::allocation_count();
  for (auto _ : state) {
    snap = rmsim::make_snapshot(db, app, 0, base);
    benchmark::DoNotOptimize(snap);
  }
  report_allocs(state, before);
}
BENCHMARK(BM_MakeSnapshot)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->ArgNames({"cores"});

/// Counter-snapshot refresh as the simulator performs it at every boundary:
/// a key-only make_snapshot_into() into per-core reusable storage (no
/// counter is filled).
void BM_MakeSnapshotReuse(benchmark::State& state) {
  const int cores = static_cast<int>(state.range(0));
  const workload::SimDb& db = bench_db(cores);
  const workload::Setting base = workload::baseline_setting(db.system());
  const int app = db.suite().index_of("mcf");
  rm::CounterSnapshot snap;
  rmsim::make_snapshot_into(db, app, 0, base, -1, snap);

  const std::uint64_t before = qosrm::testing::allocation_count();
  for (auto _ : state) {
    rmsim::make_snapshot_into(db, app, 0, base, -1, snap);
    benchmark::DoNotOptimize(snap);
  }
  report_allocs(state, before);
}
BENCHMARK(BM_MakeSnapshotReuse)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->ArgNames({"cores"});

}  // namespace

// Custom main (instead of BENCHMARK_MAIN) so the JSON context records which
// SIMD kernel the optimizer hot path actually dispatched to - without it, a
// perf regression caused by a scalar fallback would be indistinguishable
// from a real one in the uploaded trajectory.
int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "simd", qosrm::simd::level_name(qosrm::simd::active_level()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
