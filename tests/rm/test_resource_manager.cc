#include "rm/resource_manager.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "rmsim/snapshot.hh"
#include "support/missier_db.hh"
#include "support/settings_of.hh"
#include "support/shared_db.hh"

namespace qosrm::rm {
namespace {

using qosrm::testing::settings_of;
using workload::Setting;

const workload::SimDb& db() { return qosrm::testing::shared_db(); }

std::vector<CounterSnapshot> snapshots_for(const std::vector<const char*>& apps) {
  std::vector<CounterSnapshot> snaps;
  for (const char* name : apps) {
    snaps.push_back(rmsim::make_snapshot(db(), db().suite().index_of(name), 0,
                                         workload::baseline_setting(db().system())));
  }
  return snaps;
}

RmConfig config(RmPolicy policy, PerfModelKind model = PerfModelKind::Model3) {
  RmConfig cfg;
  cfg.policy = policy;
  cfg.model = model;
  return cfg;
}

/// shared_db(cores) with every LLC miss count tripled, so its curves differ.
const workload::SimDb& missier_db(int cores) {
  static std::map<int, std::unique_ptr<workload::SimDb>> dbs;
  auto it = dbs.find(cores);
  if (it == dbs.end()) {
    it = dbs.emplace(cores, qosrm::testing::missier_db(qosrm::testing::shared_db(cores)))
             .first;
  }
  return *it->second;
}

TEST(ResourceManager, IdleKeepsBaselineEverywhere) {
  ResourceManager manager(config(RmPolicy::Idle), db().system(), db().power());
  const auto snaps = snapshots_for({"mcf", "libquantum"});
  const RmDecision d = manager.invoke(0, snaps);
  const Setting base = workload::baseline_setting(db().system());
  for (const Setting& s : settings_of(manager)) EXPECT_TRUE(s == base);
  EXPECT_EQ(d.ops, 0u);
}

TEST(ResourceManager, WayBudgetAlwaysRespected) {
  for (const RmPolicy policy : {RmPolicy::Rm1, RmPolicy::Rm2, RmPolicy::Rm3}) {
    ResourceManager manager(config(policy), db().system(), db().power());
    const auto snaps = snapshots_for({"mcf", "libquantum"});
    (void)manager.invoke(0, snaps);
    int total = 0;
    for (const Setting& s : settings_of(manager)) total += s.w;
    EXPECT_EQ(total, db().system().total_ways()) << rm_policy_name(policy);
  }
}

TEST(ResourceManager, Rm1NeverTouchesFrequencyOrSize) {
  ResourceManager manager(config(RmPolicy::Rm1), db().system(), db().power());
  const auto snaps = snapshots_for({"mcf", "bwaves"});
  (void)manager.invoke(1, snaps);
  for (const Setting& s : settings_of(manager)) {
    EXPECT_EQ(s.c, arch::kBaselineCoreSize);
    EXPECT_EQ(s.f_idx, arch::VfTable::kBaselineIndex);
  }
}

TEST(ResourceManager, Rm2AdjustsFrequencyNotSize) {
  ResourceManager manager(config(RmPolicy::Rm2), db().system(), db().power());
  const auto snaps = snapshots_for({"mcf", "libquantum"});
  (void)manager.invoke(0, snaps);
  bool any_f_change = false;
  for (const Setting& s : settings_of(manager)) {
    EXPECT_EQ(s.c, arch::kBaselineCoreSize);
    any_f_change |= s.f_idx != arch::VfTable::kBaselineIndex;
  }
  EXPECT_TRUE(any_f_change);
}

TEST(ResourceManager, Rm3CanResizeCores) {
  ResourceManager manager(config(RmPolicy::Rm3), db().system(), db().power());
  const auto snaps = snapshots_for({"libquantum", "bwaves"});
  (void)manager.invoke(0, snaps);
  bool any_resize = false;
  for (const Setting& s : settings_of(manager)) {
    any_resize |= s.c != arch::kBaselineCoreSize;
  }
  EXPECT_TRUE(any_resize);
}

TEST(ResourceManager, CacheSensitiveAppGainsWaysFromInsensitiveOne) {
  ResourceManager manager(config(RmPolicy::Rm3), db().system(), db().power());
  // mcf is cache-sensitive; bwaves is streaming (flat miss curve).
  const auto snaps = snapshots_for({"mcf", "bwaves"});
  (void)manager.invoke(0, snaps);
  EXPECT_GT(manager.setting(0).w, manager.setting(1).w);
}

TEST(ResourceManager, DecisionsSatisfyPredictedQos) {
  ResourceManager manager(config(RmPolicy::Rm3), db().system(), db().power());
  const auto snaps = snapshots_for({"mcf", "xalancbmk"});
  (void)manager.invoke(0, snaps);
  const PerfModel& perf = manager.perf_model();
  for (std::size_t k = 0; k < snaps.size(); ++k) {
    EXPECT_TRUE(perf.qos_ok(snaps[k], manager.setting(static_cast<int>(k))))
        << "core " << k;
  }
}

TEST(ResourceManager, CachedCurvesReusedAcrossInvocations) {
  ResourceManager manager(config(RmPolicy::Rm3), db().system(), db().power());
  const auto snaps = snapshots_for({"mcf", "libquantum"});
  const RmDecision first = manager.invoke(0, snaps);
  const std::vector<Setting> first_settings = settings_of(manager);
  // Second invocation on core 1: core 0's cached curve is reused, so total
  // ops are lower than a cold start that computes curves for both cores.
  const RmDecision second = manager.invoke(1, snaps);
  EXPECT_GT(first.ops, 0u);
  EXPECT_GT(second.ops, 0u);
  // Decisions stay consistent (same counters -> same curves -> same split).
  EXPECT_EQ(first_settings[0].w + first_settings[1].w,
            manager.setting(0).w + manager.setting(1).w);
}

TEST(ResourceManager, ResetForcesCurveRebuild) {
  ResourceManager manager(config(RmPolicy::Rm3), db().system(), db().power());
  const auto snaps = snapshots_for({"mcf", "libquantum"});
  (void)manager.invoke(0, snaps);
  manager.reset();
  (void)manager.invoke(0, snaps);
  int total = 0;
  for (const Setting& s : settings_of(manager)) total += s.w;
  EXPECT_EQ(total, db().system().total_ways());
}

TEST(ResourceManager, RepeatedInvokeDoesNotLeakWorkspaceState) {
  // Two managers fed the same invocation sequence must agree step by step:
  // the reused workspace (flat curves, DP buffers, decision storage) may not
  // carry anything observable from one boundary to the next.
  ResourceManager a(config(RmPolicy::Rm3), db().system(), db().power());
  ResourceManager b(config(RmPolicy::Rm3), db().system(), db().power());
  const auto snaps1 = snapshots_for({"mcf", "libquantum"});
  const auto snaps2 = snapshots_for({"xalancbmk", "bwaves"});
  const std::vector<std::pair<int, const std::vector<CounterSnapshot>*>> seq = {
      {0, &snaps1}, {1, &snaps1}, {0, &snaps2}, {1, &snaps2}, {0, &snaps1},
      {1, &snaps2}, {0, &snaps1}, {1, &snaps1}};
  for (std::size_t step = 0; step < seq.size(); ++step) {
    const RmDecision da = a.invoke(seq[step].first, *seq[step].second);
    const RmDecision db_ = b.invoke(seq[step].first, *seq[step].second);
    EXPECT_TRUE(settings_of(a) == settings_of(b)) << "step " << step;
    EXPECT_EQ(da.ops, db_.ops) << "step " << step;
    EXPECT_EQ(da.feasible, db_.feasible) << "step " << step;
  }
}

TEST(ResourceManager, ResetPlusReuseMatchesFreshManager) {
  // A manager that has been through unrelated boundaries and then reset()
  // must decide exactly like a brand-new manager: reset invalidates every
  // cached curve while the workspace buffers are merely reused.
  ResourceManager seasoned(config(RmPolicy::Rm3), db().system(), db().power());
  const auto warmup = snapshots_for({"xalancbmk", "bwaves"});
  (void)seasoned.invoke(0, warmup);
  (void)seasoned.invoke(1, warmup);
  seasoned.reset();

  ResourceManager fresh(config(RmPolicy::Rm3), db().system(), db().power());
  const auto snaps = snapshots_for({"mcf", "libquantum"});
  const RmDecision a = seasoned.invoke(0, snaps);
  const RmDecision b = fresh.invoke(0, snaps);
  EXPECT_TRUE(settings_of(seasoned) == settings_of(fresh));
  EXPECT_EQ(a.ops, b.ops);
}

TEST(ResourceManager, SettingReadsTheLastDecision) {
  const Setting base = workload::baseline_setting(db().system());
  const auto snaps = snapshots_for({"mcf", "libquantum"});

  // The baseline before any invocation, and for a core idle in the last one.
  ResourceManager rm3(config(RmPolicy::Rm3), db().system(), db().power());
  for (const Setting& s : settings_of(rm3)) EXPECT_TRUE(s == base);
  (void)rm3.invoke(0, snaps);
  ASSERT_FALSE(rm3.setting(1) == base);  // precondition: a managed setting
  const std::uint8_t only_core0[] = {1, 0};
  (void)rm3.invoke(0, snaps, only_core0);
  EXPECT_TRUE(rm3.setting(1) == base);

  // The baseline under the Idle policy.
  ResourceManager idle(config(RmPolicy::Idle), db().system(), db().power());
  (void)idle.invoke(0, snaps);
  for (const Setting& s : settings_of(idle)) EXPECT_TRUE(s == base);

  // The partitioning-only baselines move the ways alone, within the budget.
  for (const RmPolicy policy : {RmPolicy::Ucp, RmPolicy::Fcp, RmPolicy::ClassPart}) {
    ResourceManager manager(config(policy), db().system(), db().power());
    (void)manager.invoke(1, snaps);
    int total = 0;
    for (const Setting& s : settings_of(manager)) {
      EXPECT_EQ(s.c, base.c) << rm_policy_name(policy);
      EXPECT_EQ(s.f_idx, base.f_idx) << rm_policy_name(policy);
      EXPECT_EQ(s.b, base.b) << rm_policy_name(policy);
      total += s.w;
    }
    EXPECT_EQ(total, db().system().total_ways()) << rm_policy_name(policy);
  }

  // reset() drops every curve, so nothing is decided until the next
  // invocation; the same snapshots then bring back bitwise-equal curves, the
  // global step is skipped, and every core reads what a fresh manager decides.
  ResourceManager live(config(RmPolicy::Rm3), db().system(), db().power());
  (void)live.invoke(0, snaps);
  live.reset();
  for (const Setting& s : settings_of(live)) EXPECT_TRUE(s == base);
  const std::uint64_t skips = live.stats().dp_skips;
  const std::uint64_t recombined = live.stats().nodes_recombined;
  const RmDecision got = live.invoke(0, snaps);
  EXPECT_EQ(live.stats().dp_skips, skips + 1);
  EXPECT_EQ(live.stats().nodes_recombined, recombined);
  ResourceManager fresh(config(RmPolicy::Rm3), db().system(), db().power());
  const RmDecision want = fresh.invoke(0, snaps);
  EXPECT_TRUE(settings_of(live) == settings_of(fresh));
  EXPECT_EQ(got.ops, want.ops);
}

// ---------------------------------------------------------------------------
// Interval-outcome memo. A keyed snapshot's local optimization is a pure
// function of its (app, phase, setting) evaluation cell, so replaying a
// memoized outcome must be completely transparent: identical settings AND
// identical charged ops, whether the cell is fresh or replayed.

RmConfig memo_config(RmMemoMode memo) {
  RmConfig cfg = config(RmPolicy::Rm3);
  cfg.memo = memo;
  return cfg;
}

/// RM3 / Model3 with the ground-truth energy option.
RmConfig rm_perfect_energy() {
  RmConfig cfg = config(RmPolicy::Rm3);
  cfg.energy.perfect = true;
  return cfg;
}

TEST(ResourceManagerMemo, AutoModeEnablesAtEveryCoreCount) {
  for (const int cores : {2, 4, 8, 16}) {
    arch::SystemConfig system;
    system.cores = cores;
    EXPECT_TRUE(ResourceManager(config(RmPolicy::Rm3), system, db().power())
                    .memo_enabled())
        << cores << " cores, Auto";
    EXPECT_TRUE(ResourceManager(memo_config(RmMemoMode::On), system,
                                db().power())
                    .memo_enabled())
        << cores << " cores, On";
    EXPECT_FALSE(ResourceManager(memo_config(RmMemoMode::Off), system,
                                 db().power())
                     .memo_enabled())
        << cores << " cores, Off";
  }
}

TEST(ResourceManagerMemo, ReplayedOutcomesAreBitIdenticalToRecomputation) {
  ResourceManager memoized(memo_config(RmMemoMode::On), db().system(),
                           db().power());
  ResourceManager plain(memo_config(RmMemoMode::Off), db().system(),
                        db().power());
  ASSERT_TRUE(memoized.memo_enabled());
  ASSERT_FALSE(plain.memo_enabled());

  const auto snaps1 = snapshots_for({"mcf", "libquantum"});
  const auto snaps2 = snapshots_for({"xalancbmk", "bwaves"});
  // Revisits guarantee memo hits (same cells as the first two steps) and a
  // reset() in the middle proves the memo legitimately survives it: the
  // replayed outcome for an unchanged cell is what a recomputation would
  // produce anyway.
  const std::vector<std::pair<int, const std::vector<CounterSnapshot>*>> seq = {
      {0, &snaps1}, {1, &snaps1}, {0, &snaps2}, {1, &snaps2},
      {0, &snaps1}, {1, &snaps2}, {-1, nullptr} /* reset */,
      {0, &snaps1}, {1, &snaps1}, {0, &snaps2}};
  for (std::size_t step = 0; step < seq.size(); ++step) {
    if (seq[step].first < 0) {
      memoized.reset();
      plain.reset();
      continue;
    }
    const RmDecision a = memoized.invoke(seq[step].first, *seq[step].second);
    const RmDecision b = plain.invoke(seq[step].first, *seq[step].second);
    EXPECT_TRUE(settings_of(memoized) == settings_of(plain)) << "step " << step;
    EXPECT_EQ(a.ops, b.ops) << "step " << step;
    EXPECT_EQ(a.feasible, b.feasible) << "step " << step;
  }
}

TEST(ResourceManagerMemo, SnapshotRefreshNeverServesStaleOutcome) {
  // The memo key is stamped by make_snapshot_into at refresh time, so
  // re-pointing a snapshot slot at a different evaluation cell (app change on
  // the same core - the service-mode departure/admission pattern) must be
  // picked up immediately, not served from the old cell's memo entry.
  ResourceManager memoized(memo_config(RmMemoMode::On), db().system(),
                           db().power());
  ResourceManager plain(memo_config(RmMemoMode::Off), db().system(),
                        db().power());
  const Setting base = workload::baseline_setting(db().system());

  std::vector<CounterSnapshot> snaps(2);
  const int apps[] = {db().suite().index_of("mcf"),
                      db().suite().index_of("libquantum"),
                      db().suite().index_of("xalancbmk")};
  rmsim::make_snapshot_into(db(), apps[0], 0, base, -1, snaps[0]);
  rmsim::make_snapshot_into(db(), apps[1], 0, base, -1, snaps[1]);

  for (int round = 0; round < 6; ++round) {
    // Rotate core 0 through the apps, refreshing IN PLACE; core 1 keeps its
    // cell so its memo entry is replayed while core 0's key changes.
    rmsim::make_snapshot_into(db(), apps[round % 3], 0, base, -1, snaps[0]);
    const RmDecision a = memoized.invoke(0, snaps);
    const RmDecision b = plain.invoke(0, snaps);
    EXPECT_TRUE(settings_of(memoized) == settings_of(plain)) << "round " << round;
    EXPECT_EQ(a.ops, b.ops) << "round " << round;
  }
}

TEST(ResourceManagerMemo, OracleSnapshotsBypassTheMemo) {
  // Oracle-backed snapshots (Perfect model) depend on the oracle phase, not
  // just the evaluation cell, so they must never be memoized. Two managers
  // with the memo on and off must agree on every Perfect-model decision.
  ResourceManager memoized(
      [] {
        RmConfig cfg = config(RmPolicy::Rm3, PerfModelKind::Perfect);
        cfg.memo = RmMemoMode::On;
        return cfg;
      }(),
      db().system(), db().power());
  ResourceManager plain(
      [] {
        RmConfig cfg = config(RmPolicy::Rm3, PerfModelKind::Perfect);
        cfg.memo = RmMemoMode::Off;
        return cfg;
      }(),
      db().system(), db().power());

  const Setting base = workload::baseline_setting(db().system());
  std::vector<CounterSnapshot> snaps(2);
  for (int round = 0; round < 4; ++round) {
    rmsim::make_snapshot_into(db(), db().suite().index_of("mcf"), round % 2,
                              base, (round + 1) % 2, snaps[0]);
    rmsim::make_snapshot_into(db(), db().suite().index_of("libquantum"),
                              round % 2, base, (round + 1) % 2, snaps[1]);
    const RmDecision a = memoized.invoke(round % 2, snaps);
    const RmDecision b = plain.invoke(round % 2, snaps);
    EXPECT_TRUE(settings_of(memoized) == settings_of(plain)) << "round " << round;
    EXPECT_EQ(a.ops, b.ops) << "round " << round;
  }
}

/// Invokes both managers on behalf of `core` and expects one decision.
void expect_same_decision(ResourceManager& a, ResourceManager& b, int core,
                          std::span<const CounterSnapshot> snaps) {
  const RmDecision da = a.invoke(core, snaps);
  const RmDecision db_ = b.invoke(core, snaps);
  EXPECT_TRUE(settings_of(a) == settings_of(b));
  EXPECT_EQ(da.ops, db_.ops);
  EXPECT_EQ(da.feasible, db_.feasible);
}

TEST(ResourceManagerMemo, LentMemoCarriesOutcomesAcrossManagers) {
  // Managers of one scope built one after another on one memo: the second
  // optimizes nothing the first already did, charges the same ops and
  // decides exactly like a manager with its own memo.
  const RmConfig cfg = config(RmPolicy::Rm3);
  const auto snaps = snapshots_for({"mcf", "libquantum"});
  OutcomeMemo memo;
  {
    ResourceManager first(cfg, db().system(), db().power(), &memo);
    (void)first.invoke(0, snaps);
    EXPECT_EQ(first.stats().local_runs, 2u);
  }
  EXPECT_EQ(memo.size(), 2u);
  ResourceManager second(cfg, db().system(), db().power(), &memo);
  ResourceManager own(cfg, db().system(), db().power());
  expect_same_decision(second, own, 0, snaps);
  EXPECT_EQ(second.stats().local_runs, 0u);
  EXPECT_EQ(second.stats().memo_hits, 2u);
  EXPECT_EQ(own.stats().local_runs, 2u);
  const auto other = snapshots_for({"xalancbmk", "libquantum"});
  expect_same_decision(second, own, 0, other);
  EXPECT_EQ(second.stats().local_runs, 1u);
  EXPECT_EQ(memo.size(), 3u);
}

TEST(ResourceManagerMemo, MemoOffRecomputesEveryInvoke) {
  // With the memo off no local result is reused: every re-invocation with an
  // unchanged keyed snapshot runs LocalOptimizer once more and replays
  // nothing. A memo-on manager replays the cell its core holds instead, and
  // both decide and charge the same.
  ResourceManager plain(memo_config(RmMemoMode::Off), db().system(), db().power());
  ResourceManager memoized(memo_config(RmMemoMode::On), db().system(), db().power());
  const auto snaps = snapshots_for({"mcf", "libquantum"});
  ASSERT_GE(snaps[0].memo_key, 0);
  ASSERT_GE(snaps[1].memo_key, 0);
  for (std::uint64_t i = 0; i < 4; ++i) {
    const int core = static_cast<int>(i % 2);
    expect_same_decision(plain, memoized, core, snaps);
    // The first invocation cold-starts both cores.
    EXPECT_EQ(plain.stats().local_runs, 2 + i) << "invoke " << i;
    EXPECT_EQ(memoized.stats().local_runs, 2u) << "invoke " << i;
    EXPECT_EQ(memoized.stats().cell_replays, i) << "invoke " << i;
  }
  EXPECT_EQ(plain.stats().cell_replays, 0u);
  EXPECT_EQ(plain.stats().memo_hits, 0u);
}

TEST(ResourceManagerMemo, RescopeKeepsEntriesOnlyUnderTheSameScope) {
  // A lend rescopes the memo: a manager of the last holder's scope keeps its
  // entries, a manager of any other scope drops them.
  const RmConfig rm3 = config(RmPolicy::Rm3);
  const MemoScope scope = memo_scope(rm3, db().system(), db().power());
  const auto snaps = snapshots_for({"mcf", "libquantum"});
  OutcomeMemo memo;
  const auto fill = [&] {
    ResourceManager manager(rm3, db().system(), db().power(), &memo);
    (void)manager.invoke(0, snaps);
  };
  fill();
  ASSERT_EQ(memo.size(), 2u);
  {
    ResourceManager same(rm3, db().system(), db().power(), &memo);
    EXPECT_EQ(memo.size(), 2u);
    (void)same.invoke(0, snaps);
    EXPECT_EQ(same.stats().local_runs, 0u);
  }
  // Every part of the scope separates: the knobs, the model, the energy
  // options and the system's alpha.
  arch::SystemConfig relaxed = db().system();
  relaxed.qos_alpha = 1.1;
  const std::pair<RmConfig, arch::SystemConfig> others[] = {
      {config(RmPolicy::Rm2), db().system()},
      {config(RmPolicy::Rm3, PerfModelKind::Model2), db().system()},
      {rm_perfect_energy(), db().system()},
      {rm3, relaxed}};
  for (const auto& [cfg, system] : others) {
    EXPECT_FALSE(memo_scope(cfg, system, db().power()) == scope);
    fill();
    EXPECT_GT(memo.size(), 0u);
    const ResourceManager other(cfg, system, db().power(), &memo);
    EXPECT_EQ(memo.size(), 0u);
  }
}

TEST(ResourceManagerMemoDeathTest, SecondLiveHolderIsRefused) {
  // One holder at a time, whatever its scope.
  OutcomeMemo memo;
  const ResourceManager holder(config(RmPolicy::Rm3), db().system(), db().power(),
                               &memo);
  EXPECT_DEATH(ResourceManager(config(RmPolicy::Rm3), db().system(), db().power(),
                               &memo),
               "two live managers");
  EXPECT_DEATH(ResourceManager(config(RmPolicy::Rm2), db().system(), db().power(),
                               &memo),
               "two live managers");
}

TEST(ResourceManagerMemoDeathTest, SecondDatabaseIsRefused) {
  // A memo serves one database, whether its manager owns it or borrows it
  // after a manager of the same scope filled it from another database.
  const std::vector<CounterSnapshot> first = snapshots_for({"mcf", "libquantum"});
  const workload::SimDb& other_db = missier_db(db().system().cores);
  const Setting base = workload::baseline_setting(db().system());
  std::vector<CounterSnapshot> second;
  for (const char* name : {"mcf", "libquantum"}) {
    second.push_back(
        rmsim::make_snapshot(other_db, other_db.suite().index_of(name), 0, base));
  }
  ResourceManager owner(config(RmPolicy::Rm3), db().system(), db().power());
  (void)owner.invoke(0, first);
  EXPECT_DEATH((void)owner.invoke(0, second), "second database");
  OutcomeMemo memo;
  {
    ResourceManager filler(config(RmPolicy::Rm3), db().system(), db().power(), &memo);
    (void)filler.invoke(0, first);
  }
  ResourceManager borrower(config(RmPolicy::Rm3), db().system(), db().power(), &memo);
  EXPECT_DEATH((void)borrower.invoke(0, second), "second database");
}

TEST(ResourceManagerMemoDeathTest, KeyOutsideTheKeySpaceIsRefused) {
  ResourceManager manager(config(RmPolicy::Rm3), db().system(), db().power());
  std::vector<CounterSnapshot> snaps = snapshots_for({"mcf", "libquantum"});
  (void)manager.invoke(0, snaps);
  snaps[0].memo_key = snaps[0].memo_space;
  EXPECT_DEATH((void)manager.invoke(0, snaps), "outside its database's key space");
}

// ---------------------------------------------------------------------------
// Incremental invoke. A long-lived manager replays same-cell snapshots and
// recombines only dirty tree leaves; along a service-like sequence (arrivals,
// departures, interval boundaries that may or may not change the cell, and
// re-invocations with unchanged counters) it must decide exactly like a
// fresh manager built for every single call.

void expect_incremental_matches_fresh(int cores, const RmConfig& cfg,
                                      std::uint64_t seed) {
  const workload::SimDb& sdb = qosrm::testing::shared_db(cores);
  const Setting base = workload::baseline_setting(sdb.system());
  const bool perfect = cfg.model == PerfModelKind::Perfect;
  ResourceManager incremental(cfg, sdb.system(), sdb.power());
  std::vector<CounterSnapshot> snaps(static_cast<std::size_t>(cores));
  std::vector<std::uint8_t> active(static_cast<std::size_t>(cores), 0);
  std::vector<int> app(static_cast<std::size_t>(cores), 0);
  std::vector<int> seq_pos(static_cast<std::size_t>(cores), 0);
  std::vector<Setting> setting(static_cast<std::size_t>(cores), base);
  Rng rng(seed);
  std::uint64_t invoked = 0;
  const auto phase_of = [&](std::size_t k, int pos) {
    const std::vector<int>& seq = sdb.suite().app(app[k]).phase_sequence;
    return seq[static_cast<std::size_t>(pos) % seq.size()];
  };
  const auto refresh = [&](std::size_t k) {
    rmsim::make_snapshot_into(sdb, app[k], phase_of(k, seq_pos[k]), setting[k],
                              perfect ? phase_of(k, seq_pos[k] + 1) : -1,
                              snaps[k]);
  };

  for (int step = 0; step < 300; ++step) {
    const auto k = static_cast<std::size_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(cores)));
    const int event = static_cast<int>(rng.uniform_u64(10));
    if (active[k] == 0) {  // arrival
      active[k] = 1;
      app[k] = static_cast<int>(
          rng.uniform_u64(static_cast<std::uint64_t>(sdb.suite().size())));
      seq_pos[k] = 0;
      setting[k] = base;
      refresh(k);
    } else if (event == 0) {  // departure
      active[k] = 0;
    } else if (event <= 6) {  // interval boundary: advance the phase
      ++seq_pos[k];
      refresh(k);
    }  // else: a re-invocation with unchanged counters
    // After a departure the first survivor re-invokes with unchanged counters.
    std::size_t invoker = k;
    if (active[invoker] == 0) {
      invoker = static_cast<std::size_t>(
          std::find(active.begin(), active.end(), 1) - active.begin());
      if (invoker == active.size()) continue;
    }
    const RmDecision& got = incremental.invoke(static_cast<int>(invoker), snaps, active);
    ++invoked;
    ResourceManager fresh(cfg, sdb.system(), sdb.power());
    const RmDecision& want = fresh.invoke(static_cast<int>(invoker), snaps, active);
    const std::string what = std::to_string(cores) + " cores step " +
                             std::to_string(step);
    ASSERT_EQ(got.feasible, want.feasible) << what;
    EXPECT_EQ(got.ops, want.ops) << what;
    EXPECT_TRUE(settings_of(incremental) == settings_of(fresh)) << what;
    // The invoking core runs the decided setting next interval.
    setting[invoker] = incremental.setting(static_cast<int>(invoker));
  }

  const RmInvokeStats& stats = incremental.stats();
  EXPECT_EQ(stats.invocations, invoked);
  if (is_baseline_policy(cfg.policy)) {
    // The partitioning classics keep per-core rows but run no local or
    // global step, so nothing is skipped, replayed or recombined.
    EXPECT_EQ(stats.local_runs, 0u);
    EXPECT_EQ(stats.dp_skips, 0u);
    EXPECT_EQ(stats.nodes_recombined, 0u);
    EXPECT_EQ(stats.cell_replays, 0u);
    EXPECT_EQ(stats.memo_hits, 0u);
    return;
  }
  EXPECT_GT(stats.dp_skips, 0u);
  EXPECT_LT(stats.nodes_recombined,
            stats.invocations * static_cast<std::uint64_t>(cores - 1));
  if (perfect) {
    EXPECT_EQ(stats.cell_replays, 0u);  // oracle counters never replay
    EXPECT_EQ(stats.memo_hits, 0u);
  } else {
    EXPECT_GT(stats.cell_replays, 0u);
  }
}

TEST(ResourceManagerIncremental, ServiceSequenceMatchesFreshManagerPerCall) {
  expect_incremental_matches_fresh(4, config(RmPolicy::Rm3), 11);
  expect_incremental_matches_fresh(8, config(RmPolicy::Rm3), 12);
  expect_incremental_matches_fresh(8, config(RmPolicy::Rm2), 13);
  expect_incremental_matches_fresh(4, config(RmPolicy::Rm3, PerfModelKind::Perfect),
                                   14);
  // RM1 and the partitioning classics, which cache their per-core rows in
  // the baseline workspace instead of the local/global caches.
  expect_incremental_matches_fresh(4, config(RmPolicy::Rm1), 15);
  expect_incremental_matches_fresh(8, config(RmPolicy::Rm1), 16);
  std::uint64_t seed = 16;
  for (const RmPolicy policy : {RmPolicy::Ucp, RmPolicy::Fcp, RmPolicy::ClassPart}) {
    expect_incremental_matches_fresh(4, config(policy), ++seed);
    expect_incremental_matches_fresh(8, config(policy), ++seed);
    expect_incremental_matches_fresh(4, config(policy, PerfModelKind::Perfect), ++seed);
  }
}

// ---------------------------------------------------------------------------
// Unchanged decision. When no leaf is dirty (only same-cell replays,
// untouched caches or bitwise-equal curves) and no occupancy flips, a
// long-lived manager skips the global step and reads every core's setting
// at the kept allocation. Along a walk in which only the invoking core's
// counters change between invocations, a fresh manager invoked once on the
// same snapshots sees exactly the long-lived manager's inputs from a cold
// state, so settings, feasibility and charged ops must all match at every
// step.

struct WalkStats {
  std::uint64_t invocations = 0;
  std::uint64_t dp_skips = 0;
  std::uint64_t nodes_recombined = 0;
};

WalkStats walk_long_lived_vs_fresh(int cores, int shares, const RmConfig& cfg,
                                   int steps, std::uint64_t seed) {
  const workload::SimDb& sdb = qosrm::testing::shared_db(cores, shares);
  const Setting base = workload::baseline_setting(sdb.system());
  const bool perfect = cfg.model == PerfModelKind::Perfect;
  ResourceManager live(cfg, sdb.system(), sdb.power());
  const auto n = static_cast<std::size_t>(cores);
  std::vector<CounterSnapshot> snaps(n);
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
    rmsim::make_snapshot_into(sdb, app[k], phase_of(k, seq_pos[k]), setting[k],
                              perfect ? phase_of(k, seq_pos[k] + 1) : -1,
                              snaps[k]);
  };
  // Fill most cores up front so decisions are contended from the start.
  for (std::size_t k = 0; k + 1 < n; ++k) {
    active[k] = 1;
    app[k] = static_cast<int>(
        rng.uniform_u64(static_cast<std::uint64_t>(sdb.suite().size())));
    refresh(k);
  }

  WalkStats walk;
  for (int step = 0; step < steps; ++step) {
    auto k = static_cast<std::size_t>(rng.uniform_u64(n));
    const int event = static_cast<int>(rng.uniform_u64(12));
    if (active[k] == 0) {  // arrival: idle -> active
      active[k] = 1;
      app[k] = static_cast<int>(
          rng.uniform_u64(static_cast<std::uint64_t>(sdb.suite().size())));
      seq_pos[k] = 0;
      setting[k] = base;
      refresh(k);
    } else if (event == 0) {  // departure: active -> idle
      active[k] = 0;
      k = static_cast<std::size_t>(std::find(active.begin(), active.end(), 1) -
                                   active.begin());
      if (k == n) continue;  // nobody left to invoke
    } else if (event <= 2) {  // a new cell: the next phase
      ++seq_pos[k];
      refresh(k);
    } else if (event <= 4) {  // an earlier cell: the previous phase
      seq_pos[k] = std::max(0, seq_pos[k] - 1);
      refresh(k);
    } else if (event == 5) {  // back to the arrival cell (a memo hit if on)
      seq_pos[k] = 0;
      setting[k] = base;
      refresh(k);
    } else if (event <= 8) {  // a fresh snapshot of the same cell
      refresh(k);
    }  // else: a re-invocation with unchanged counters

    const RmDecision& got = live.invoke(static_cast<int>(k), snaps, active);
    ResourceManager fresh(cfg, sdb.system(), sdb.power());
    const RmDecision& want = fresh.invoke(static_cast<int>(k), snaps, active);
    const std::string what = std::string(rm_policy_name(cfg.policy)) +
                             (perfect ? " Perfect " : " Model3 ") +
                             std::to_string(cores) + "c/" + std::to_string(shares) +
                             "b memo " + std::to_string(static_cast<int>(cfg.memo)) +
                             " step " + std::to_string(step);
    EXPECT_EQ(got.feasible, want.feasible) << what;
    EXPECT_EQ(got.ops, want.ops) << what;
    EXPECT_TRUE(settings_of(live) == settings_of(fresh)) << what;
    // The invoking core runs the decided setting from its next interval.
    setting[k] = live.setting(static_cast<int>(k));
  }
  const RmInvokeStats& stats = live.stats();
  walk.invocations = stats.invocations;
  walk.dp_skips = stats.dp_skips;
  walk.nodes_recombined = stats.nodes_recombined;
  EXPECT_GT(stats.dp_skips, 0u);
  if (perfect || !live.memo_enabled()) {
    EXPECT_EQ(stats.cell_replays, 0u);  // oracle counters, or nothing reused
  } else {
    EXPECT_GT(stats.cell_replays, 0u);
  }
  if (live.memo_enabled() && !perfect) {
    EXPECT_GT(stats.memo_hits, 0u);
  } else {
    EXPECT_EQ(stats.memo_hits, 0u);  // memo off, or oracle counters
  }
  return walk;
}

TEST(ResourceManager, LongLivedManagerMatchesFreshManagerAlongAWalk) {
  std::uint64_t seed = 40;
  for (const RmPolicy policy : {RmPolicy::Rm1, RmPolicy::Rm2, RmPolicy::Rm3}) {
    for (const PerfModelKind model : {PerfModelKind::Model3, PerfModelKind::Perfect}) {
      for (const int cores : {4, 16}) {
        for (const int shares : {1, 4}) {
          for (const RmMemoMode memo : {RmMemoMode::On, RmMemoMode::Off}) {
            RmConfig cfg = config(policy, model);
            cfg.memo = memo;
            (void)walk_long_lived_vs_fresh(cores, shares, cfg, cores == 4 ? 300 : 160,
                                           ++seed);
          }
        }
      }
    }
  }
  // The host-side work counters of one fixed walk are pinned to the values
  // the manager recorded before it reused unchanged decisions: reuse counts
  // a DP skip exactly as the global step it replaces did.
  RmConfig cfg = config(RmPolicy::Rm3);
  cfg.memo = RmMemoMode::On;
  const WalkStats pinned = walk_long_lived_vs_fresh(16, 1, cfg, 200, 2020);
  EXPECT_EQ(pinned.invocations, 200u);
  EXPECT_EQ(pinned.dp_skips, 127u);
  EXPECT_EQ(pinned.nodes_recombined, 303u);
}

// The same comparison along a walk that also exercises what the invoking
// core's fast path and the kept views and allocation must survive: reset()
// mid-walk, idle <-> active flips, a departure immediately followed by a
// re-seat of the same app on the same core (the first invocation after it
// usually decides the setting the previous tenant had), and, with the memo
// off, snapshots moving between two databases (missier_db) while other
// cores still hold curves computed from the first. A memo serves one
// database, so the memo-on arm stays on the first. RM1 and the partitioning
// classics (whose per-core rows live in the baseline workspace) walk too.
void walk_with_resets_reseats_and_db_switches(int cores, const RmConfig& cfg,
                                              int steps, std::uint64_t seed) {
  const workload::SimDb* dbs[] = {&qosrm::testing::shared_db(cores),
                                  &missier_db(cores)};
  const workload::SimDb& sdb = *dbs[0];
  const Setting base = workload::baseline_setting(sdb.system());
  const bool perfect = cfg.model == PerfModelKind::Perfect;
  const bool switches_db = cfg.memo == RmMemoMode::Off;
  ResourceManager live(cfg, sdb.system(), sdb.power());
  const auto n = static_cast<std::size_t>(cores);
  std::vector<CounterSnapshot> snaps(n);
  std::vector<std::uint8_t> active(n, 0);
  std::vector<int> app(n, 0);
  std::vector<int> seq_pos(n, 0);
  std::vector<int> db_of(n, 0);
  std::vector<Setting> setting(n, base);
  Rng rng(seed);
  const auto phase_of = [&](std::size_t k, int pos) {
    const std::vector<int>& seq = sdb.suite().app(app[k]).phase_sequence;
    return seq[static_cast<std::size_t>(pos) % seq.size()];
  };
  const auto refresh = [&](std::size_t k) {
    rmsim::make_snapshot_into(*dbs[db_of[k]], app[k], phase_of(k, seq_pos[k]),
                              setting[k], perfect ? phase_of(k, seq_pos[k] + 1) : -1,
                              snaps[k]);
  };
  const auto seat = [&](std::size_t k, int a) {
    active[k] = 1;
    app[k] = a;
    seq_pos[k] = 0;
    setting[k] = base;
    refresh(k);
  };
  for (std::size_t k = 0; k + 1 < n; ++k) {
    seat(k, static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(sdb.suite().size()))));
  }

  std::uint64_t resets = 0, reseats = 0, switches = 0, flips = 0;
  for (int step = 0; step < steps; ++step) {
    auto k = static_cast<std::size_t>(rng.uniform_u64(n));
    const int event = static_cast<int>(rng.uniform_u64(12));
    if (active[k] == 0) {  // arrival: idle -> active
      seat(k, static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(sdb.suite().size()))));
      ++flips;
    } else if (event == 0) {  // departure: active -> idle
      active[k] = 0;
      ++flips;
      k = static_cast<std::size_t>(std::find(active.begin(), active.end(), 1) -
                                   active.begin());
      if (k == n) continue;
    } else if (event == 1) {  // departure and re-seat of the same app
      seat(k, app[k]);
      ++reseats;
    } else if (event == 2 && switches_db) {  // the counters move database
      db_of[k] = 1 - db_of[k];
      refresh(k);
      ++switches;
    } else if (event == 3) {  // reset() before this invocation
      live.reset();
      ++resets;
    } else if (event <= 6) {  // the next phase
      ++seq_pos[k];
      refresh(k);
    } else if (event <= 8) {  // a fresh snapshot of the same cell
      refresh(k);
    }  // else: a re-invocation with unchanged counters

    const RmDecision& got = live.invoke(static_cast<int>(k), snaps, active);
    ResourceManager fresh(cfg, sdb.system(), sdb.power());
    const RmDecision& want = fresh.invoke(static_cast<int>(k), snaps, active);
    const std::string what = std::string(rm_policy_name(cfg.policy)) +
                             (perfect ? " Perfect " : " Model3 ") +
                             std::to_string(cores) + "c memo " +
                             std::to_string(static_cast<int>(cfg.memo)) + " step " +
                             std::to_string(step) + " event " + std::to_string(event);
    ASSERT_EQ(got.feasible, want.feasible) << what;
    EXPECT_EQ(got.ops, want.ops) << what;
    EXPECT_TRUE(settings_of(live) == settings_of(fresh)) << what;
    setting[k] = live.setting(static_cast<int>(k));
  }
  EXPECT_GT(resets, 0u);
  EXPECT_GT(reseats, 0u);
  EXPECT_EQ(switches > 0, switches_db);
  EXPECT_GT(flips, 0u);
}

TEST(ResourceManagerIncremental, ResetsReseatsAndDatabaseSwitchesMatchFreshManager) {
  std::uint64_t seed = 90;
  for (const RmPolicy policy : {RmPolicy::Rm1, RmPolicy::Rm2, RmPolicy::Rm3,
                                RmPolicy::Ucp, RmPolicy::Fcp, RmPolicy::ClassPart}) {
    for (const PerfModelKind model : {PerfModelKind::Model3, PerfModelKind::Perfect}) {
      for (const RmMemoMode memo : {RmMemoMode::On, RmMemoMode::Off}) {
        RmConfig cfg = config(policy, model);
        cfg.memo = memo;
        walk_with_resets_reseats_and_db_switches(4, cfg, 240, ++seed);
        walk_with_resets_reseats_and_db_switches(8, cfg, 120, ++seed);
      }
    }
  }
}

TEST(ResourceManager, PolicyNames) {
  EXPECT_STREQ(rm_policy_name(RmPolicy::Idle), "Idle");
  EXPECT_STREQ(rm_policy_name(RmPolicy::Rm1), "RM1");
  EXPECT_STREQ(rm_policy_name(RmPolicy::Rm2), "RM2");
  EXPECT_STREQ(rm_policy_name(RmPolicy::Rm3), "RM3");
}

}  // namespace
}  // namespace qosrm::rm
