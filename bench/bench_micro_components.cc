// Google-benchmark microbenchmarks for the hot paths of the library: the
// structures the paper argues are cheap enough for hardware/runtime use.
//
//   * MLP-ATD observe        - the proposed 48-counter extension
//   * oracle leading misses  - offline ground-truth analysis, all (c, w)
//   * phase characterization - the per-phase unit of the cold SimDb build
//   * trace synthesis        - workload generation throughput
//   * local optimization     - one per-core RM invocation piece
//   * global optimization    - min-plus reduction, 2..16 cores
#include <benchmark/benchmark.h>

#include "cache/lru_stack.hh"
#include "cache/mlp_atd.hh"
#include "cache/mlp_oracle.hh"
#include "common/rng.hh"
#include "rm/global_opt.hh"
#include "rm/local_opt.hh"
#include "rm/resource_manager.hh"
#include "rmsim/snapshot.hh"
#include "workload/phase_stats.hh"
#include "workload/sim_db.hh"
#include "workload/spec_suite.hh"
#include "workload/trace_synth.hh"

namespace {

using namespace qosrm;

std::vector<cache::LlcAccess> make_trace(std::size_t n) {
  Rng rng(1234);
  std::vector<cache::LlcAccess> trace;
  trace.reserve(n);
  std::uint64_t inst = 0;
  for (std::size_t i = 0; i < n; ++i) {
    inst += 1 + rng.geometric(1.0 / 40.0);
    trace.push_back({inst, static_cast<std::uint32_t>(rng.uniform_u64(64)),
                     rng.uniform_u64(4000), rng.bernoulli(0.3)});
  }
  return trace;
}

void BM_MlpAtdObserve(benchmark::State& state) {
  const auto trace = make_trace(1 << 14);
  cache::MlpAtdConfig cfg;
  cfg.sets = 64;
  cfg.min_ways = 1;
  cache::MlpAtd atd(cfg);
  std::size_t i = 0;
  for (auto _ : state) {
    atd.observe(trace[i]);
    i = (i + 1) & (trace.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MlpAtdObserve);

// One pass of the lane kernel: all 3 x 16 (core size, allocation) counts.
void BM_OracleLeadingMisses(benchmark::State& state) {
  const auto trace = make_trace(1 << 14);
  std::vector<cache::LruStack> sets(64, cache::LruStack(16));
  std::vector<std::uint8_t> recency;
  recency.reserve(trace.size());
  for (const cache::LlcAccess& a : trace) recency.push_back(sets[a.set].access(a.tag));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache::MlpOracle::leading_miss_curves(trace, recency, 16));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_OracleLeadingMisses);

// Cold characterization of one phase (synthesis with its shadow recency,
// oracle, arrival order, MLP-ATD): the per-phase unit of the SimDb build.
void BM_CharacterizePhase(benchmark::State& state) {
  const workload::SpecSuite& suite = workload::spec_suite();
  const workload::AppProfile& app = suite.app(suite.index_of("mcf"));
  const workload::CharacterizationSystem system =
      workload::characterization_system(arch::SystemConfig{});
  const workload::PhaseStatsOptions options;
  std::int64_t accesses = 0;
  for (auto _ : state) {
    const workload::PhaseStats stats =
        workload::characterize_phase(app.phases.front(), system, options, app.trace_seed);
    accesses += static_cast<std::int64_t>(stats.llc_accesses / stats.scale + 0.5);
    benchmark::DoNotOptimize(stats.lm_atd);
  }
  state.SetItemsProcessed(accesses);
}
BENCHMARK(BM_CharacterizePhase)->Unit(benchmark::kMillisecond);

void BM_TraceSynthesis(benchmark::State& state) {
  workload::PhaseParams phase;
  phase.lpki = 8.0;
  phase.reuse = workload::make_stack_profile(0.4, 0.4, 8.0, 2.0, 0.2);
  phase.burst_size = 10.0;
  workload::TraceSynthConfig cfg;
  cfg.represented_instructions = 1e6;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::synthesize_trace(phase, cfg, seed++));
  }
}
BENCHMARK(BM_TraceSynthesis);

const workload::SimDb& bench_db() {
  static const workload::SimDb db = [] {
    arch::SystemConfig system;
    system.cores = 2;
    return workload::SimDb(workload::spec_suite(), system, power::PowerModel{});
  }();
  return db;
}

void BM_LocalOptimization(benchmark::State& state) {
  const workload::SimDb& db = bench_db();
  const rm::CounterSnapshot snap = rmsim::make_snapshot(
      db, db.suite().index_of("mcf"), 0, workload::baseline_setting(db.system()));
  const rm::PerfModel perf(rm::PerfModelKind::Model3, db.system());
  const rm::OnlineEnergyModel energy(db.power());
  const rm::LocalOptimizer optimizer(perf, energy, {true, true});
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimizer.optimize(snap));
  }
}
BENCHMARK(BM_LocalOptimization);

void BM_GlobalOptimization(benchmark::State& state) {
  const auto cores = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<std::vector<double>> energy(cores);
  std::vector<rm::EnergyCurveView> curves;
  for (std::vector<double>& e : energy) {
    for (int w = 2; w <= 16; ++w) e.push_back(rng.uniform(1.0, 100.0));
    curves.push_back({2, std::span<const double>(e)});
  }
  const int budget = 8 * static_cast<int>(cores);
  // A from-scratch reduction per call over a warm workspace.
  rm::GlobalOptWorkspace ws;
  rm::GlobalOptResult result;
  for (auto _ : state) {
    rm::GlobalOptimizer::optimize_into(curves, budget, ws, result);
    benchmark::DoNotOptimize(result.total_energy);
  }
}
BENCHMARK(BM_GlobalOptimization)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// The RM's common global step: one leaf's surface changed since the last
// call. Leaf 0 alternates between two surfaces over a warm workspace, so
// each call recopies that leaf, recombines its root path and backtracks it.
// `rm3_shaped` draws curves the way RM3 produces them - QoS-infeasible below
// a per-core way count, with scattered infeasible holes above it - instead
// of uniform curves that are feasible everywhere, so the feasible spans and
// counts the combine tree caches differ from the full rows.
void BM_GlobalOptimizationDirtyLeaf(benchmark::State& state, bool rm3_shaped) {
  const auto cores = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<std::vector<double>> energy(cores + 1);  // [cores]: leaf 0's twin
  for (std::vector<double>& e : energy) {
    const int first_feasible = rm3_shaped ? 2 + static_cast<int>(rng.uniform_u64(7)) : 2;
    for (int w = 2; w <= 16; ++w) {
      const bool feasible = w >= first_feasible && !(rm3_shaped && rng.bernoulli(0.15));
      e.push_back(feasible ? rng.uniform(1.0, 100.0)
                           : std::numeric_limits<double>::infinity());
    }
    if (rm3_shaped) e.back() = rng.uniform(1.0, 100.0);  // the full LLC meets QoS
  }
  std::vector<rm::EnergyCurveView> curves;
  for (std::size_t k = 0; k < cores; ++k) {
    curves.push_back({2, std::span<const double>(energy[k])});
  }
  const int budget = 8 * static_cast<int>(cores);
  const int shares = static_cast<int>(cores);  // every core at its one share
  std::vector<std::uint8_t> dirty(cores, 0);
  dirty[0] = 1;
  rm::GlobalOptWorkspace ws;
  rm::GlobalOptResult result;
  rm::GlobalOptimizer::optimize_into(curves, budget, ws, result);
  if (!result.feasible) state.SkipWithError("budget infeasible for these curves");
  std::size_t twin = 0;
  for (auto _ : state) {
    twin ^= cores;
    curves[0].energy = energy[twin];
    rm::GlobalOptimizer::optimize_into(curves, budget, shares, dirty, ws, result);
    benchmark::DoNotOptimize(result.total_energy);
  }
}
BENCHMARK_CAPTURE(BM_GlobalOptimizationDirtyLeaf, uniform, false)->Arg(4)->Arg(16);
BENCHMARK_CAPTURE(BM_GlobalOptimizationDirtyLeaf, rm3_shaped, true)->Arg(4)->Arg(16);

void BM_RmInvocationEndToEnd(benchmark::State& state) {
  const workload::SimDb& db = bench_db();
  rm::RmConfig cfg;
  cfg.policy = rm::RmPolicy::Rm3;
  cfg.model = rm::PerfModelKind::Model3;
  rm::ResourceManager manager(cfg, db.system(), db.power());
  std::vector<rm::CounterSnapshot> snaps;
  snaps.push_back(rmsim::make_snapshot(db, db.suite().index_of("mcf"), 0,
                                       workload::baseline_setting(db.system())));
  snaps.push_back(rmsim::make_snapshot(db, db.suite().index_of("libquantum"), 0,
                                       workload::baseline_setting(db.system())));
  int core = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(manager.invoke(core, snaps));
    core ^= 1;
  }
}
BENCHMARK(BM_RmInvocationEndToEnd);

}  // namespace

BENCHMARK_MAIN();
