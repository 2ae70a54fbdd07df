#include "rmsim/snapshot.hh"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>

#include "support/shared_db.hh"

namespace qosrm::rmsim {
namespace {

const workload::SimDb& db() { return qosrm::testing::shared_db(); }

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

/// Every field of two snapshots bitwise equal; `current` is compared only
/// when `with_current` is set.
void expect_bitwise_equal(const rm::CounterSnapshot& a,
                          const rm::CounterSnapshot& b, bool with_current,
                          const std::string& what) {
  if (with_current) {
    EXPECT_TRUE(a.current == b.current) << what;
  }
  EXPECT_TRUE(same_bits(a.instructions, b.instructions)) << what;
  EXPECT_TRUE(same_bits(a.total_time_s, b.total_time_s)) << what;
  EXPECT_TRUE(same_bits(a.t_width_s, b.t_width_s)) << what;
  EXPECT_TRUE(same_bits(a.t_ilp_s, b.t_ilp_s)) << what;
  EXPECT_TRUE(same_bits(a.t_branch_s, b.t_branch_s)) << what;
  EXPECT_TRUE(same_bits(a.t_cache_s, b.t_cache_s)) << what;
  EXPECT_TRUE(same_bits(a.t_mem_s, b.t_mem_s)) << what;
  EXPECT_TRUE(same_bits(a.llc_accesses, b.llc_accesses)) << what;
  EXPECT_TRUE(same_bits(a.llc_misses, b.llc_misses)) << what;
  EXPECT_TRUE(same_bits(a.writebacks, b.writebacks)) << what;
  EXPECT_TRUE(same_bits(a.measured_mlp, b.measured_mlp)) << what;
  EXPECT_TRUE(same_bits(a.atd_misses, b.atd_misses)) << what;
  for (std::size_t c = 0; c < a.atd_leading_misses.size(); ++c) {
    EXPECT_TRUE(same_bits(a.atd_leading_misses[c], b.atd_leading_misses[c]))
        << what << " core size " << c;
  }
  const power::PowerSample& pa = a.power_sample;
  const power::PowerSample& pb = b.power_sample;
  EXPECT_EQ(pa.size, pb.size) << what;
  EXPECT_TRUE(same_bits(pa.voltage, pb.voltage)) << what;
  EXPECT_TRUE(same_bits(pa.freq_hz, pb.freq_hz)) << what;
  EXPECT_TRUE(same_bits(pa.dynamic_power_w, pb.dynamic_power_w)) << what;
  EXPECT_TRUE(same_bits(pa.dynamic_energy_j, pb.dynamic_energy_j)) << what;
  EXPECT_TRUE(same_bits(pa.duration_s, pb.duration_s)) << what;
  EXPECT_EQ(pa.valid, pb.valid) << what;
  EXPECT_EQ(a.oracle.db, b.oracle.db) << what;
  EXPECT_EQ(a.oracle.app, b.oracle.app) << what;
  EXPECT_EQ(a.oracle.phase, b.oracle.phase) << what;
  EXPECT_EQ(a.memo_key, b.memo_key) << what;
  EXPECT_EQ(a.memo_space, b.memo_space) << what;
  EXPECT_EQ(a.memo_db, b.memo_db) << what;
  EXPECT_EQ(a.app, b.app) << what;
  EXPECT_EQ(a.phase, b.phase) << what;
  EXPECT_EQ(a.key_only, b.key_only) << what;
}

TEST(Snapshot, ComponentsSumToTotalTime) {
  const workload::Setting base = workload::baseline_setting(db().system());
  const rm::CounterSnapshot snap = make_snapshot(db(), 0, 0, base);
  EXPECT_NEAR(snap.t_width_s + snap.t_ilp_s + snap.t_branch_s + snap.t_cache_s +
                  snap.t_mem_s,
              snap.total_time_s, snap.total_time_s * 1e-9);
}

TEST(Snapshot, CurrentSettingRecorded) {
  const workload::Setting s{arch::CoreSize::L, 3, 11};
  const rm::CounterSnapshot snap = make_snapshot(db(), 2, 1, s);
  EXPECT_TRUE(snap.current == s);
}

// The ATD curves the RM reads are the phase's exact, unsampled recency
// miss curve and its MLP-ATD leading-miss curves, bit for bit at every w.
TEST(Snapshot, AtdCurvesCoverAllAllocations) {
  const workload::Setting base = workload::baseline_setting(db().system());
  const rm::CounterSnapshot snap = make_snapshot(db(), 5, 0, base);
  const workload::PhaseStats& st = db().stats(5, 0);
  EXPECT_EQ(snap.max_ways(), 16);
  for (int c = 0; c < arch::kNumCoreSizes; ++c) {
    EXPECT_EQ(snap.atd_leading_misses[static_cast<std::size_t>(c)].size(), 16u);
  }
  for (int w = 1; w <= 16; ++w) {
    const auto i = static_cast<std::size_t>(w - 1);
    EXPECT_TRUE(same_bits(snap.atd_misses_at(w), st.misses[i])) << "w=" << w;
    for (const arch::CoreSize c : arch::kAllCoreSizes) {
      const auto c_idx = static_cast<std::size_t>(arch::core_size_index(c));
      EXPECT_TRUE(same_bits(snap.atd_leading_at(c, w), st.lm_atd[c_idx][i]))
          << "c=" << c_idx << " w=" << w;
    }
  }
}

TEST(Snapshot, MissesMatchDbAtCurrentAllocation) {
  const workload::Setting base = workload::baseline_setting(db().system());
  const int app = db().suite().index_of("mcf");
  const rm::CounterSnapshot snap = make_snapshot(db(), app, 0, base);
  EXPECT_DOUBLE_EQ(snap.llc_misses, db().stats(app, 0).misses[7]);
  EXPECT_DOUBLE_EQ(snap.atd_misses_at(8), snap.llc_misses);
}

TEST(Snapshot, PowerSampleValidAndConsistent) {
  const workload::Setting base = workload::baseline_setting(db().system());
  const int app = db().suite().index_of("soplex");
  const rm::CounterSnapshot snap = make_snapshot(db(), app, 0, base);
  ASSERT_TRUE(snap.power_sample.valid);
  EXPECT_EQ(snap.power_sample.size, base.c);
  EXPECT_DOUBLE_EQ(snap.power_sample.freq_hz, 2e9);
  // Sampled dynamic energy = measured core energy minus the static table.
  const double core_j = db().energy(app, 0, base).core_j();
  const double static_j =
      db().power().core_static_power(base.c, 1.0) * snap.total_time_s;
  EXPECT_NEAR(snap.power_sample.dynamic_energy_j, core_j - static_j,
              core_j * 1e-9);
}

TEST(Snapshot, MeasuredMlpMatchesGroundTruth) {
  const workload::Setting base = workload::baseline_setting(db().system());
  const int app = db().suite().index_of("bwaves");
  const rm::CounterSnapshot snap = make_snapshot(db(), app, 0, base);
  EXPECT_DOUBLE_EQ(snap.measured_mlp,
                   db().stats(app, 0).mlp_true(base.c, base.w));
}

TEST(Snapshot, OracleAbsentByDefaultPresentOnRequest) {
  const workload::Setting base = workload::baseline_setting(db().system());
  EXPECT_FALSE(make_snapshot(db(), 0, 0, base).oracle.valid());
  const rm::CounterSnapshot with = make_snapshot(db(), 0, 0, base, 1);
  ASSERT_TRUE(with.oracle.valid());
  EXPECT_EQ(with.oracle.app, 0);
  EXPECT_EQ(with.oracle.phase, 1);
  EXPECT_EQ(with.oracle.db, &db());
}

TEST(Snapshot, TimesScaleWithCurrentFrequency) {
  const int app = db().suite().index_of("povray");
  workload::Setting slow = workload::baseline_setting(db().system());
  slow.f_idx = 0;
  const rm::CounterSnapshot at_base =
      make_snapshot(db(), app, 0, workload::baseline_setting(db().system()));
  const rm::CounterSnapshot at_slow = make_snapshot(db(), app, 0, slow);
  EXPECT_NEAR(at_slow.t_width_s, at_base.t_width_s * 2.0, at_base.t_width_s * 0.01);
  EXPECT_DOUBLE_EQ(at_slow.t_mem_s, at_base.t_mem_s);
}

// Settings whose ways clamp to the same grid cell share an interval key, so
// the RM memo and its same-cell replay treat their snapshots as one: every
// counter (all but `current` itself) must then be the same, bit for bit.
TEST(Snapshot, SettingsSharingAKeyYieldIdenticalCounters) {
  const int app = db().suite().index_of("mcf");
  const int max_ways = db().stats(app, 0).max_ways();
  workload::Setting at_max = workload::baseline_setting(db().system());
  at_max.w = max_ways;
  workload::Setting beyond = at_max;
  beyond.w = max_ways + 3;
  ASSERT_EQ(db().interval_key(app, 0, at_max), db().interval_key(app, 0, beyond));

  const rm::CounterSnapshot a = make_snapshot(db(), app, 0, at_max);
  const rm::CounterSnapshot b = make_snapshot(db(), app, 0, beyond);
  EXPECT_TRUE(b.current == beyond);
  expect_bitwise_equal(a, b, /*with_current=*/false, "w beyond max_ways");
  EXPECT_TRUE(same_bits(b.llc_misses, db().stats(app, 0).misses.back()));
}

// A key-only refresh stamps the cell's identity and nothing else; filled
// from its source cell, it must equal a fresh build field by field, whether
// the step repeats the held cell, moves to another setting, changes only
// `current` within the same key, or changes only the oracle phase the
// Perfect model looks up. A refresh given the key directly (the interval
// kernel passes the key its freeze read) stamps the same snapshot.
TEST(Snapshot, InPlaceRefreshMatchesFreshBuildAlongAWalk) {
  const int app = db().suite().index_of("xalancbmk");
  const int other = db().suite().index_of("libquantum");
  ASSERT_GE(db().num_phases(app), 2);
  const workload::Setting base = workload::baseline_setting(db().system());
  workload::Setting small = base;
  small.c = arch::CoreSize::S;
  small.f_idx = 1;
  small.w = 3;
  workload::Setting at_max = base;
  at_max.w = db().system().llc.max_ways;
  workload::Setting beyond = at_max;
  beyond.w = at_max.w + 2;

  struct Step {
    int app;
    int phase;
    workload::Setting current;
    int oracle_phase;
    const char* what;
  };
  const Step walk[] = {
      {app, 0, base, -1, "first fill"},
      {app, 0, base, -1, "same cell"},
      {app, 0, small, -1, "setting changed"},
      {app, 0, small, -1, "same cell again"},
      {app, 0, small, 1, "oracle phase added"},
      {app, 0, small, 0, "oracle phase changed"},
      {app, 0, small, -1, "oracle dropped"},
      {app, 1, small, -1, "phase changed"},
      {app, 1, at_max, -1, "ways at max"},
      {app, 1, beyond, -1, "same key, current changed"},
      {app, 1, beyond, 0, "same key, oracle added"},
      {other, 1, beyond, -1, "app changed"},
      {app, 1, beyond, -1, "back to the earlier cell"},
  };
  rm::CounterSnapshot snap;
  rm::CounterSnapshot keyed;
  for (const Step& step : walk) {
    make_snapshot_into(db(), step.app, step.phase, step.current,
                       step.oracle_phase, snap);
    const rm::CounterSnapshot fresh = make_snapshot(
        db(), step.app, step.phase, step.current, step.oracle_phase);
    EXPECT_TRUE(snap.key_only) << step.what;
    EXPECT_FALSE(fresh.key_only) << step.what;
    EXPECT_TRUE(snap.current == fresh.current) << step.what;
    EXPECT_EQ(snap.oracle.db, fresh.oracle.db) << step.what;
    EXPECT_EQ(snap.oracle.app, fresh.oracle.app) << step.what;
    EXPECT_EQ(snap.oracle.phase, fresh.oracle.phase) << step.what;
    EXPECT_EQ(snap.memo_key, db().interval_key(step.app, step.phase, step.current))
        << step.what;
    EXPECT_EQ(snap.memo_key, fresh.memo_key) << step.what;
    EXPECT_EQ(snap.memo_space, fresh.memo_space) << step.what;
    EXPECT_EQ(snap.memo_db, fresh.memo_db) << step.what;
    EXPECT_EQ(snap.app, fresh.app) << step.what;
    EXPECT_EQ(snap.phase, fresh.phase) << step.what;

    rm::CounterSnapshot filled = snap;
    rm::fill_counters(filled);
    expect_bitwise_equal(filled, fresh, /*with_current=*/true, step.what);

    make_snapshot_into(db(), step.app, step.phase, step.current,
                       step.oracle_phase, snap.memo_key, keyed);
    rm::fill_counters(keyed);
    expect_bitwise_equal(keyed, fresh, /*with_current=*/true,
                         std::string(step.what) + " (key given)");
  }
}

}  // namespace
}  // namespace qosrm::rmsim
