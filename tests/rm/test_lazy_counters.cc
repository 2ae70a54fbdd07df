// Key-only snapshots against filled ones. The interval kernel hands the RM
// key-only snapshots, and the manager fills counters in its own workspace
// only where it reads them. Along walks with reset() and re-seats, each on
// one of two databases (a manager's memo serves one), a long-lived manager
// fed key-only snapshots must decide exactly like a fresh manager fed
// make_snapshot's filled snapshots of the same cells, for every policy, both
// model families and both bandwidth axes.
//
// The databases are the full suite characterized on short traces, built in
// this binary, so the suite carries no `slow` label and runs in the fast
// (and sanitizer) test set. Budget: about 1 s in a Release build.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "power/power_model.hh"
#include "rm/resource_manager.hh"
#include "rmsim/snapshot.hh"
#include "support/missier_db.hh"
#include "support/settings_of.hh"
#include "workload/sim_db.hh"
#include "workload/spec_suite.hh"

namespace qosrm::rm {
namespace {

using qosrm::testing::settings_of;
using workload::Setting;
using workload::SimDb;

/// The database of (cores, shares): the whole suite on traces 1/40 of the
/// default length. `missier` is the same database with every LLC miss count
/// tripled, so its curves differ.
const SimDb& small_db(int cores, int shares, bool missier) {
  static std::map<std::tuple<int, int, bool>, std::unique_ptr<SimDb>> dbs;
  const auto key = std::make_tuple(cores, shares, missier);
  auto it = dbs.find(key);
  if (it != dbs.end()) return *it->second;
  std::unique_ptr<SimDb> db;
  if (!missier) {
    arch::SystemConfig system;
    system.cores = cores;
    system.bw = arch::bw_config_for_shares(shares);
    workload::SimDbOptions options;
    options.phase.synth.represented_instructions = 2e5;
    options.threads = 1;
    db = std::make_unique<SimDb>(workload::spec_suite(), system, power::PowerModel{},
                                 options);
  } else {
    db = qosrm::testing::missier_db(small_db(cores, shares, false));
  }
  return *dbs.emplace(key, std::move(db)).first->second;
}

RmConfig config(RmPolicy policy, PerfModelKind model) {
  RmConfig cfg;
  cfg.policy = policy;
  cfg.model = model;
  cfg.energy.perfect = model == PerfModelKind::Perfect;
  return cfg;
}

void walk_key_only_vs_filled(int cores, int shares, bool missier, const RmConfig& cfg,
                             int steps, std::uint64_t seed) {
  const SimDb& sdb = small_db(cores, shares, missier);
  const Setting base = workload::baseline_setting(sdb.system());
  const bool perfect = cfg.model == PerfModelKind::Perfect;
  ResourceManager live(cfg, sdb.system(), sdb.power());
  const auto n = static_cast<std::size_t>(cores);
  std::vector<CounterSnapshot> key_only(n);  // what the live manager reads
  std::vector<CounterSnapshot> filled(n);    // what each fresh manager reads
  std::vector<std::uint8_t> active(n, 0);
  std::vector<int> app(n, 0);
  std::vector<int> seq_pos(n, 0);
  std::vector<Setting> setting(n, base);
  Rng rng(seed);
  const auto phase_of = [&](std::size_t k, int pos) {
    const std::vector<int>& seq = sdb.suite().app(app[k]).phase_sequence;
    return seq[static_cast<std::size_t>(pos) % seq.size()];
  };
  const auto refresh = [&](std::size_t k) {
    const int phase = phase_of(k, seq_pos[k]);
    const int oracle = perfect ? phase_of(k, seq_pos[k] + 1) : -1;
    rmsim::make_snapshot_into(sdb, app[k], phase, setting[k], oracle, key_only[k]);
    filled[k] = rmsim::make_snapshot(sdb, app[k], phase, setting[k], oracle);
  };
  const auto draw_app = [&] {
    return static_cast<int>(
        rng.uniform_u64(static_cast<std::uint64_t>(sdb.suite().size())));
  };
  const auto seat = [&](std::size_t k, int a) {
    active[k] = 1;
    app[k] = a;
    seq_pos[k] = 0;
    setting[k] = base;
    refresh(k);
  };
  for (std::size_t k = 0; k + 1 < n; ++k) seat(k, draw_app());

  const std::string name = std::string(rm_policy_name(cfg.policy)) +
                           (perfect ? " Perfect " : " Model3 ") + std::to_string(cores) +
                           "c/" + std::to_string(shares) + "b" +
                           (missier ? " missier" : "");
  std::uint64_t resets = 0, reseats = 0;
  for (int step = 0; step < steps; ++step) {
    // The first steps force what a short walk may miss, on core 0 (seated
    // above): a re-seat and a reset().
    const bool forced = step < 2;
    auto k = forced ? std::size_t{0} : static_cast<std::size_t>(rng.uniform_u64(n));
    const int event = forced ? 1 + 2 * step : static_cast<int>(rng.uniform_u64(12));
    if (active[k] == 0) {  // arrival: idle -> active
      seat(k, draw_app());
    } else if (event == 0) {  // departure: active -> idle
      active[k] = 0;
      k = static_cast<std::size_t>(std::find(active.begin(), active.end(), 1) -
                                   active.begin());
      if (k == n) continue;
    } else if (event == 1) {  // departure and re-seat of the same app
      seat(k, app[k]);
      ++reseats;
    } else if (event == 3) {  // reset() before this invocation
      live.reset();
      ++resets;
    } else if (event <= 6) {  // the next phase (event 2 included)
      ++seq_pos[k];
      refresh(k);
    } else if (event <= 8) {  // a fresh snapshot of the same cell
      refresh(k);
    }  // else: a re-invocation with unchanged counters

    const RmDecision& got = live.invoke(static_cast<int>(k), key_only, active);
    ResourceManager fresh(cfg, sdb.system(), sdb.power());
    const RmDecision& want = fresh.invoke(static_cast<int>(k), filled, active);
    const std::string what =
        name + " step " + std::to_string(step) + " event " + std::to_string(event);
    ASSERT_EQ(got.feasible, want.feasible) << what;
    EXPECT_EQ(got.ops, want.ops) << what;
    EXPECT_TRUE(settings_of(live) == settings_of(fresh)) << what;
    EXPECT_EQ(fresh.stats().counter_fills, 0u) << what;  // it read filled ones
    setting[k] = live.setting(static_cast<int>(k));
  }
  EXPECT_GT(resets, 0u) << name;
  EXPECT_GT(reseats, 0u) << name;

  const RmInvokeStats& stats = live.stats();
  EXPECT_GT(stats.counter_fills, 0u) << name;
  if (is_baseline_policy(cfg.policy)) {
    // Every invocation refreshes the invoking core; a scan adds cold starts.
    EXPECT_EQ(stats.local_runs, 0u) << name;
    EXPECT_GE(stats.counter_fills, stats.invocations) << name;
  } else {
    EXPECT_EQ(stats.counter_fills, stats.local_runs) << name;
  }
}

TEST(LazyCounters, KeyOnlySnapshotsDecideLikeFilledOnesForEveryPolicy) {
  std::uint64_t seed = 270;
  for (const int cores : {2, 4, 8}) {
    for (const int shares : {1, 4}) {
      for (const RmPolicy policy : {RmPolicy::Rm1, RmPolicy::Rm2, RmPolicy::Rm3,
                                    RmPolicy::Ucp, RmPolicy::Fcp, RmPolicy::ClassPart}) {
        for (const PerfModelKind model :
             {PerfModelKind::Model3, PerfModelKind::Perfect}) {
          // Each policy walks both databases, one per model family.
          const bool missier =
              (static_cast<int>(policy) % 2 == 1) != (model == PerfModelKind::Perfect);
          walk_key_only_vs_filled(cores, shares, missier, config(policy, model),
                                  cores == 8 ? 40 : 60, ++seed);
        }
      }
    }
  }
}

// A key-only snapshot is a key and a cell name, not counters: local
// optimization refuses to read one.
TEST(LazyCountersDeathTest, LocalOptimizationRefusesAnUnfilledSnapshot) {
  const SimDb& sdb = small_db(2, 1, false);
  const PerfModel perf(PerfModelKind::Model3, sdb.system());
  const OnlineEnergyModel energy(sdb.power(), EnergyModelOptions{});
  const LocalOptimizer local(perf, energy, LocalOptOptions{});
  CounterSnapshot snap;
  rmsim::make_snapshot_into(sdb, 0, 0, workload::baseline_setting(sdb.system()), -1,
                            snap);
  EXPECT_DEATH((void)local.optimize(snap), "unfilled snapshot");
  fill_counters(snap);
  EXPECT_FALSE(local.optimize(snap).choices.empty());
}

}  // namespace
}  // namespace qosrm::rm
