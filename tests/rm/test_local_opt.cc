#include "rm/local_opt.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "rmsim/snapshot.hh"
#include "support/shared_db.hh"

namespace qosrm::rm {
namespace {

using workload::Setting;

const workload::SimDb& db() { return qosrm::testing::shared_db(); }

CounterSnapshot snapshot_of(const char* name) {
  return rmsim::make_snapshot(db(), db().suite().index_of(name), 0,
                              workload::baseline_setting(db().system()));
}

struct Optimizers {
  PerfModel perf{PerfModelKind::Model3, db().system()};
  OnlineEnergyModel energy{db().power()};
};

TEST(LocalOptDeathTest, ChoiceOutsideTheSurfaceAborts) {
  // A 2-share surface over ways [2, 4]: shares [1, 2].
  LocalOptResult result;
  result.min_ways = 2;
  result.min_shares = 1;
  result.num_shares = 2;
  result.choices.resize(6);
  EXPECT_EQ(&result.at(4, 2), &result.choices.back());
  EXPECT_DEATH((void)result.at(1, 1), "w >= min_ways");
  EXPECT_DEATH((void)result.at(5, 1), "w <= max_ways\\(\\)");
  EXPECT_DEATH((void)result.at(2, 0), "b >= min_shares");
  EXPECT_DEATH((void)result.at(2, 3), "b <= max_shares\\(\\)");
  EXPECT_DEATH((void)result.at(5), "w <= max_ways\\(\\)");
}

TEST(LocalOpt, BaselineAllocationAlwaysFeasible) {
  Optimizers o;
  for (const LocalOptOptions opt :
       {LocalOptOptions{false, false}, LocalOptOptions{true, false},
        LocalOptOptions{true, true}}) {
    const LocalOptimizer lo(o.perf, o.energy, opt);
    const auto result = lo.optimize(snapshot_of("mcf"));
    EXPECT_TRUE(result.at(8).feasible);
  }
}

TEST(LocalOpt, Rm1KeepsBaselineCoreAndFrequency) {
  Optimizers o;
  const LocalOptimizer lo(o.perf, o.energy, {false, false});
  const auto result = lo.optimize(snapshot_of("mcf"));
  for (int w = result.min_ways; w <= result.max_ways(); ++w) {
    if (!result.at(w).feasible) continue;
    EXPECT_EQ(result.at(w).setting.c, arch::kBaselineCoreSize);
    EXPECT_EQ(result.at(w).setting.f_idx, arch::VfTable::kBaselineIndex);
    EXPECT_EQ(result.at(w).setting.w, w);
  }
}

TEST(LocalOpt, Rm1InfeasibleBelowBaselineForCacheSensitiveApp) {
  // Without DVFS compensation, taking ways from mcf must violate QoS.
  Optimizers o;
  const LocalOptimizer lo(o.perf, o.energy, {false, false});
  const auto result = lo.optimize(snapshot_of("mcf"));
  EXPECT_FALSE(result.at(2).feasible);
  EXPECT_TRUE(result.at(12).feasible);
}

TEST(LocalOpt, Rm2FindsMinimumFeasibleFrequency) {
  Optimizers o;
  const LocalOptimizer lo(o.perf, o.energy, {true, false});
  const auto result = lo.optimize(snapshot_of("mcf"));
  // f*(w) must be non-increasing in w for a cache-sensitive app: more cache
  // means more slack means lower frequency.
  int prev_f = arch::VfTable::kNumPoints;
  for (int w = result.min_ways; w <= result.max_ways(); ++w) {
    ASSERT_TRUE(result.at(w).feasible) << w;  // DVFS can always compensate
    EXPECT_LE(result.at(w).setting.f_idx, prev_f) << "w=" << w;
    prev_f = result.at(w).setting.f_idx;
    EXPECT_EQ(result.at(w).setting.c, arch::kBaselineCoreSize);
  }
}

TEST(LocalOpt, Rm2QosHoldsAtChosenSettings) {
  Optimizers o;
  const LocalOptimizer lo(o.perf, o.energy, {true, false});
  const CounterSnapshot snap = snapshot_of("xalancbmk");
  const auto result = lo.optimize(snap);
  for (int w = result.min_ways; w <= result.max_ways(); ++w) {
    if (!result.at(w).feasible) continue;
    EXPECT_TRUE(o.perf.qos_ok(snap, result.at(w).setting)) << "w=" << w;
  }
}

TEST(LocalOpt, Rm3DominatesRm2EnergyCurve) {
  // A larger search space can only improve the estimated optimum.
  Optimizers o;
  const CounterSnapshot snap = snapshot_of("libquantum");
  const LocalOptimizer rm2(o.perf, o.energy, {true, false});
  const LocalOptimizer rm3(o.perf, o.energy, {true, true});
  const auto r2 = rm2.optimize(snap);
  const auto r3 = rm3.optimize(snap);
  for (int w = r2.min_ways; w <= r2.max_ways(); ++w) {
    if (!r2.at(w).feasible) continue;
    ASSERT_TRUE(r3.at(w).feasible);
    EXPECT_LE(r3.at(w).energy_j, r2.at(w).energy_j + 1e-12) << "w=" << w;
  }
}

TEST(LocalOpt, Rm3PicksLargeCoreForParallelismSensitiveApp) {
  Optimizers o;
  const LocalOptimizer rm3(o.perf, o.energy, {true, true});
  const auto result = rm3.optimize(snapshot_of("libquantum"));
  // Somewhere in the allocation range the L core must win for a strongly
  // parallelism-sensitive streaming application.
  bool picks_large = false;
  for (int w = result.min_ways; w <= result.max_ways(); ++w) {
    picks_large |= result.at(w).feasible &&
                   result.at(w).setting.c == arch::CoreSize::L;
  }
  EXPECT_TRUE(picks_large);
}

TEST(LocalOpt, Rm3KeepsBaselineForInsensitiveApp) {
  // povray (CI-PI): no resource helps; the optimizer must not find anything
  // materially cheaper than the baseline setting.
  Optimizers o;
  const LocalOptimizer rm3(o.perf, o.energy, {true, true});
  const CounterSnapshot snap = snapshot_of("povray");
  const auto result = rm3.optimize(snap);
  const OnlineEnergyModel& em = o.energy;
  const Setting base = workload::baseline_setting(db().system());
  const double e_base =
      em.estimate(snap, base, o.perf.predict_time(snap, base));
  EXPECT_GT(result.at(8).energy_j, e_base * 0.97);
}

TEST(LocalOpt, EnergyCurveMarksInfeasibleAsInfinity) {
  Optimizers o;
  const LocalOptimizer rm1(o.perf, o.energy, {false, false});
  const auto result = rm1.optimize(snapshot_of("mcf"));
  const auto curve = result.energy_curve();
  ASSERT_EQ(curve.size(), static_cast<std::size_t>(db().system().llc.num_allocations()));
  EXPECT_TRUE(std::isinf(curve[0]));                      // w=2 infeasible
  EXPECT_FALSE(std::isinf(curve[8 - result.min_ways]));   // w=8 feasible
}

TEST(LocalOpt, OpsAccumulateAcrossCalls) {
  Optimizers o;
  const LocalOptimizer rm3(o.perf, o.energy, {true, true});
  std::uint64_t ops = 0;
  (void)rm3.optimize(snapshot_of("mcf"), &ops);
  const std::uint64_t after_one = ops;
  EXPECT_GT(after_one, 0u);
  (void)rm3.optimize(snapshot_of("mcf"), &ops);
  EXPECT_NEAR(static_cast<double>(ops), 2.0 * static_cast<double>(after_one),
              static_cast<double>(after_one) * 0.01);
}

TEST(LocalOpt, Rm3SearchCostsMoreOpsThanRm2) {
  Optimizers o;
  const LocalOptimizer rm2(o.perf, o.energy, {true, false});
  const LocalOptimizer rm3(o.perf, o.energy, {true, true});
  std::uint64_t ops2 = 0, ops3 = 0;
  (void)rm2.optimize(snapshot_of("mcf"), &ops2);
  (void)rm3.optimize(snapshot_of("mcf"), &ops3);
  EXPECT_GT(ops3, ops2);  // three core sizes vs one
}

// The optimizer hoists the target-invariant Eq. 1 terms out of its
// (w, c, f) sweep. This reference loop evaluates the model directly per
// setting - exactly what the pre-hoisting implementation did - and every
// result field must match BITWISE, for every analytical model kind and a
// spread of apps/knob sets.
TEST(LocalOpt, HoistedSweepMatchesModelCalls) {
  const arch::SystemConfig& sys = db().system();
  for (const PerfModelKind kind :
       {PerfModelKind::Model1, PerfModelKind::Model2, PerfModelKind::Model3}) {
    for (const char* app : {"mcf", "libquantum", "bwaves", "xalancbmk"}) {
      for (const LocalOptOptions opt :
           {LocalOptOptions{false, false}, LocalOptOptions{true, false},
            LocalOptOptions{true, true}}) {
        const PerfModel perf(kind, sys);
        const OnlineEnergyModel energy(db().power());
        const LocalOptimizer lo(perf, energy, opt);
        const CounterSnapshot snap = snapshot_of(app);
        const LocalOptResult result = lo.optimize(snap);

        const workload::Setting base = workload::baseline_setting(sys);
        const double t_base = perf.predict_time(snap, base) * sys.qos_alpha;
        const std::vector<arch::CoreSize> sizes =
            opt.allow_resize
                ? std::vector<arch::CoreSize>{arch::CoreSize::S,
                                              arch::CoreSize::M,
                                              arch::CoreSize::L}
                : std::vector<arch::CoreSize>{arch::kBaselineCoreSize};

        for (int w = sys.llc.min_ways; w <= sys.llc.max_ways; ++w) {
          WayChoice expect;
          for (const arch::CoreSize c : sizes) {
            int f_star = -1;
            double t_star = 0.0;
            if (opt.allow_dvfs) {
              for (int f = 0; f < arch::VfTable::kNumPoints; ++f) {
                const double t = perf.predict_time(snap, {c, f, w});
                if (t <= t_base) {
                  f_star = f;
                  t_star = t;
                  break;
                }
              }
            } else {
              const double t =
                  perf.predict_time(snap, {c, arch::VfTable::kBaselineIndex, w});
              if (t <= t_base) {
                f_star = arch::VfTable::kBaselineIndex;
                t_star = t;
              }
            }
            if (f_star < 0) continue;
            const workload::Setting s{c, f_star, w};
            const double e = energy.estimate(snap, s, t_star);
            if (e < expect.energy_j) {
              expect.feasible = true;
              expect.setting = s;
              expect.predicted_time_s = t_star;
              expect.energy_j = e;
            }
          }

          const WayChoice& got = result.at(w);
          const std::string where = std::string(perf_model_name(kind)) + "/" +
                                    app + "/w=" + std::to_string(w);
          ASSERT_EQ(got.feasible, expect.feasible) << where;
          if (!expect.feasible) continue;
          EXPECT_TRUE(got.setting == expect.setting) << where;
          EXPECT_EQ(got.predicted_time_s, expect.predicted_time_s) << where;
          EXPECT_EQ(got.energy_j, expect.energy_j) << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace qosrm::rm
