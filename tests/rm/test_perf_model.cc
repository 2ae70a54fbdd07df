#include "rm/perf_model.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "rmsim/snapshot.hh"
#include "support/shared_db.hh"

namespace qosrm::rm {
namespace {

using workload::Setting;

const workload::SimDb& db() { return qosrm::testing::shared_db(); }

arch::SystemConfig sys() { return db().system(); }

CounterSnapshot baseline_snapshot(const char* app_name = "mcf", int phase = 0) {
  const int app = db().suite().index_of(app_name);
  return rmsim::make_snapshot(db(), app, phase,
                              workload::baseline_setting(sys()), phase);
}

TEST(PerfModel, PredictingCurrentSettingReproducesMeasurement) {
  const CounterSnapshot snap = baseline_snapshot();
  for (const PerfModelKind kind :
       {PerfModelKind::Model2, PerfModelKind::Model3}) {
    const PerfModel model(kind, sys());
    const double t = model.predict_time(snap, snap.current);
    // At the measured setting the analytical skeleton reassembles the
    // measured components; only the memory term differs per model.
    EXPECT_NEAR(t, snap.total_time_s, snap.total_time_s * 0.15)
        << perf_model_name(kind);
  }
}

TEST(PerfModel, Model3ReproducesCurrentTimeClosely) {
  // Model3's only error at the current setting is the ATD-vs-oracle gap.
  const CounterSnapshot snap = baseline_snapshot();
  const PerfModel model(PerfModelKind::Model3, sys());
  const double t = model.predict_time(snap, snap.current);
  EXPECT_NEAR(t, snap.total_time_s, snap.total_time_s * 0.10);
}

TEST(PerfModel, FrequencyScalesCoreTimeOnly) {
  const CounterSnapshot snap = baseline_snapshot();
  const PerfModel model(PerfModelKind::Model3, sys());
  Setting slow = snap.current;
  slow.f_idx = 0;  // 1 GHz, half the baseline frequency
  const double t_mem = model.predict_mem_time(snap, slow);
  const double t_base_core =
      model.predict_time(snap, snap.current) -
      model.predict_mem_time(snap, snap.current);
  const double t_slow_core = model.predict_time(snap, slow) - t_mem;
  EXPECT_NEAR(t_slow_core, 2.0 * t_base_core, t_base_core * 0.01);
  EXPECT_DOUBLE_EQ(t_mem, model.predict_mem_time(snap, snap.current));
}

TEST(PerfModel, Model1IgnoresMlp) {
  const CounterSnapshot snap = baseline_snapshot();
  const PerfModel m1(PerfModelKind::Model1, sys());
  const double t_mem = m1.predict_mem_time(snap, snap.current);
  EXPECT_NEAR(t_mem, snap.atd_misses_at(8) * sys().mem_latency_s, 1e-12);
  // Model1's memory time does not depend on the core size.
  Setting large = snap.current;
  large.c = arch::CoreSize::L;
  EXPECT_DOUBLE_EQ(m1.predict_mem_time(snap, large), t_mem);
}

TEST(PerfModel, Model2DividesByMeasuredMlp) {
  const CounterSnapshot snap = baseline_snapshot();
  const PerfModel m2(PerfModelKind::Model2, sys());
  const double t_mem = m2.predict_mem_time(snap, snap.current);
  EXPECT_NEAR(t_mem,
              snap.atd_misses_at(8) / snap.measured_mlp * sys().mem_latency_s,
              1e-12);
  // Constant-MLP assumption: same division at every core size.
  Setting small = snap.current;
  small.c = arch::CoreSize::S;
  EXPECT_DOUBLE_EQ(m2.predict_mem_time(snap, small), t_mem);
}

TEST(PerfModel, Model3SeesMlpGrowWithCoreSize) {
  // For a parallelism-sensitive app the predicted memory time must shrink
  // when the core grows - the effect Models 1/2 cannot see.
  const CounterSnapshot snap = baseline_snapshot("libquantum");
  const PerfModel m3(PerfModelKind::Model3, sys());
  Setting s = snap.current;
  s.c = arch::CoreSize::S;
  Setting l = snap.current;
  l.c = arch::CoreSize::L;
  EXPECT_GT(m3.predict_mem_time(snap, s), m3.predict_mem_time(snap, l) * 1.2);
}

TEST(PerfModel, BiggerCorePredictedFasterAtSameFrequency) {
  const CounterSnapshot snap = baseline_snapshot("soplex");
  const PerfModel m3(PerfModelKind::Model3, sys());
  Setting l = snap.current;
  l.c = arch::CoreSize::L;
  EXPECT_LT(m3.predict_time(snap, l), m3.predict_time(snap, snap.current));
}

TEST(PerfModel, QosAcceptsBaselineAndRejectsDeepThrottle) {
  const CounterSnapshot snap = baseline_snapshot();
  const PerfModel m3(PerfModelKind::Model3, sys());
  EXPECT_TRUE(m3.qos_ok(snap, workload::baseline_setting(sys())));
  Setting throttled = snap.current;
  throttled.f_idx = 0;
  throttled.w = 2;
  EXPECT_FALSE(m3.qos_ok(snap, throttled));
}

TEST(PerfModel, PerfectModelMatchesGroundTruth) {
  const int app = db().suite().index_of("mcf");
  CounterSnapshot snap = baseline_snapshot("mcf", 1);
  const PerfModel perfect(PerfModelKind::Perfect, sys());
  for (const Setting target :
       {Setting{arch::CoreSize::L, 3, 12}, Setting{arch::CoreSize::S, 10, 4}}) {
    EXPECT_DOUBLE_EQ(perfect.predict_time(snap, target),
                     db().timing(app, 1, target).total_seconds);
  }
}

TEST(PerfModel, PredictionsExtrapolateAcrossCurrentSettings) {
  // Build counters at a NON-baseline setting and predict the baseline; the
  // prediction must be within a modest error of ground truth.
  const int app = db().suite().index_of("sphinx3");
  const Setting current{arch::CoreSize::L, 4, 12};
  const CounterSnapshot snap = rmsim::make_snapshot(db(), app, 0, current);
  const PerfModel m3(PerfModelKind::Model3, sys());
  const double predicted = m3.predict_time(snap, workload::baseline_setting(sys()));
  const double actual = db().baseline_time(app, 0);
  EXPECT_NEAR(predicted, actual, actual * 0.15);
}

TEST(PerfModel, PredictionsIgnoreTheCurrentFrequency) {
  // The database's core time scales as 1/f and Eq. 1 multiplies it back by
  // f_i, so counters taken at any current VF point predict what those taken
  // at the baseline point predict. The QoS evaluation (rmsim/qos_eval.cc)
  // visits the baseline point only and relies on this: the predictions agree
  // to rounding and no QoS outcome flips.
  const arch::SystemConfig system = sys();
  const Setting base = workload::baseline_setting(system);
  std::vector<Setting> targets;
  for (const arch::CoreSize c : arch::kAllCoreSizes) {
    for (int f = 0; f < arch::VfTable::kNumPoints; ++f) {
      for (int w = system.llc.min_ways; w <= system.llc.max_ways; ++w) {
        targets.push_back({c, f, w, base.b});
      }
    }
  }
  double worst = 0.0;
  long cases = 0;
  long flips = 0;
  std::vector<double> at_base(targets.size());
  for (const PerfModelKind kind :
       {PerfModelKind::Model1, PerfModelKind::Model2, PerfModelKind::Model3}) {
    const PerfModel model(kind, system);
    // One app per category: CS-PS, CI-PS, CS-PI, CI-PI.
    for (const char* name : {"mcf", "libquantum", "gcc", "povray"}) {
      const int app = db().suite().index_of(name);
      for (const arch::CoreSize c : arch::kAllCoreSizes) {
        for (int w = system.llc.min_ways; w <= system.llc.max_ways; ++w) {
          const CounterSnapshot snap_b =
              rmsim::make_snapshot(db(), app, 0, {c, base.f_idx, w, base.b});
          const double limit_b =
              model.predict_time(snap_b, base) * system.qos_alpha;
          for (std::size_t t = 0; t < targets.size(); ++t) {
            at_base[t] = model.predict_time(snap_b, targets[t]);
          }
          for (int f = 0; f < arch::VfTable::kNumPoints; ++f) {
            if (f == base.f_idx) continue;
            const CounterSnapshot snap =
                rmsim::make_snapshot(db(), app, 0, {c, f, w, base.b});
            const double limit =
                model.predict_time(snap, base) * system.qos_alpha;
            for (std::size_t t = 0; t < targets.size(); ++t) {
              const double pred = model.predict_time(snap, targets[t]);
              worst = std::max(worst, std::abs(pred - at_base[t]) / at_base[t]);
              flips += (pred > limit) != (at_base[t] > limit_b);
              ++cases;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 3L * 4 * 3 * 15 * 18 * 855);
  EXPECT_LE(worst, 1e-14);
  EXPECT_EQ(flips, 0);
}

TEST(PerfModel, Names) {
  EXPECT_STREQ(perf_model_name(PerfModelKind::Model1), "Model1");
  EXPECT_STREQ(perf_model_name(PerfModelKind::Model2), "Model2");
  EXPECT_STREQ(perf_model_name(PerfModelKind::Model3), "Model3");
  EXPECT_STREQ(perf_model_name(PerfModelKind::Perfect), "Perfect");
}

}  // namespace
}  // namespace qosrm::rm
