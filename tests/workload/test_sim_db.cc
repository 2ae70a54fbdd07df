#include "workload/sim_db.hh"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/binary_io.hh"
#include "common/simd.hh"
#include "support/shared_db.hh"

namespace qosrm::workload {
namespace {

const SimDb& db() { return qosrm::testing::shared_db(); }

TEST(SimDb, BaselineSettingMatchesTableI) {
  const Setting base = baseline_setting(db().system());
  EXPECT_EQ(base.c, arch::kBaselineCoreSize);
  EXPECT_EQ(base.f_idx, arch::VfTable::kBaselineIndex);
  EXPECT_EQ(base.w, 8);
}

TEST(SimDb, EveryPhaseCharacterized) {
  for (int a = 0; a < db().suite().size(); ++a) {
    EXPECT_EQ(db().num_phases(a), db().suite().app(a).num_phases());
    for (int ph = 0; ph < db().num_phases(a); ++ph) {
      EXPECT_GT(db().stats(a, ph).llc_accesses, 0.0);
    }
  }
}

TEST(SimDb, TimingFasterWithMoreWaysForCacheSensitiveApp) {
  const int mcf = db().suite().index_of("mcf");
  ASSERT_GE(mcf, 0);
  const Setting base = baseline_setting(db().system());
  Setting more = base;
  more.w = 14;
  Setting fewer = base;
  fewer.w = 3;
  EXPECT_LT(db().timing(mcf, 0, more).total_seconds,
            db().timing(mcf, 0, base).total_seconds);
  EXPECT_GT(db().timing(mcf, 0, fewer).total_seconds,
            db().timing(mcf, 0, base).total_seconds);
}

TEST(SimDb, TimingFasterAtHigherFrequency) {
  const Setting base = baseline_setting(db().system());
  Setting fast = base;
  fast.f_idx = arch::VfTable::kNumPoints - 1;
  Setting slow = base;
  slow.f_idx = 0;
  for (const int a : {0, 10, 20}) {
    EXPECT_LT(db().timing(a, 0, fast).total_seconds,
              db().timing(a, 0, base).total_seconds);
    EXPECT_GT(db().timing(a, 0, slow).total_seconds,
              db().timing(a, 0, base).total_seconds);
  }
}

TEST(SimDb, EnergyComponentsPositiveAndComposable) {
  const Setting base = baseline_setting(db().system());
  for (const int a : {1, 13, 26}) {
    const power::IntervalEnergy e = db().energy(a, 0, base);
    EXPECT_GT(e.core_dynamic_j, 0.0);
    EXPECT_GT(e.core_static_j, 0.0);
    EXPECT_GE(e.memory_j, 0.0);
    EXPECT_NEAR(e.total_j(), e.core_dynamic_j + e.core_static_j + e.memory_j,
                1e-15);
  }
}

TEST(SimDb, HigherVoltageCostsMoreDynamicEnergy) {
  const Setting base = baseline_setting(db().system());
  Setting fast = base;
  fast.f_idx = arch::VfTable::kNumPoints - 1;
  const int mcf = db().suite().index_of("mcf");
  EXPECT_GT(db().energy(mcf, 0, fast).core_dynamic_j,
            db().energy(mcf, 0, base).core_dynamic_j);
}

TEST(SimDb, BaselineTimeIsConsistent) {
  const Setting base = baseline_setting(db().system());
  for (int a = 0; a < db().suite().size(); a += 5) {
    EXPECT_DOUBLE_EQ(db().baseline_time(a, 0),
                     db().timing(a, 0, base).total_seconds);
  }
}

TEST(SimDb, AppMpkiAggregatesPhases) {
  const int mcf = db().suite().index_of("mcf");
  const double mpki8 = db().app_mpki(mcf, 8);
  EXPECT_GT(mpki8, 0.2);
  // Aggregate must be within the per-phase min/max envelope.
  double lo = 1e300, hi = 0.0;
  for (int ph = 0; ph < db().num_phases(mcf); ++ph) {
    lo = std::min(lo, db().stats(mcf, ph).mpki(8));
    hi = std::max(hi, db().stats(mcf, ph).mpki(8));
  }
  EXPECT_GE(mpki8, lo);
  EXPECT_LE(mpki8, hi);
}

TEST(SimDb, AppMlpOrderedByCoreSizeForStreamingApp) {
  const int bwaves = db().suite().index_of("bwaves");
  EXPECT_GT(db().app_mlp(bwaves, arch::CoreSize::M),
            db().app_mlp(bwaves, arch::CoreSize::S));
  EXPECT_GT(db().app_mlp(bwaves, arch::CoreSize::L),
            db().app_mlp(bwaves, arch::CoreSize::M));
}

// The materialized evaluation table must be bit-identical to evaluating the
// analytical models directly from the phase characterization, over the FULL
// finite (c, f, w) grid (this is the refactor's correctness contract).
TEST(SimDb, TableMatchesDirectEvaluationOverFullGrid) {
  const SimDb& d = db();
  const arch::SystemConfig& sys = d.system();
  int timing_mismatches = 0;
  int energy_mismatches = 0;
  for (int app = 0; app < d.suite().size(); ++app) {
    for (int ph = 0; ph < d.num_phases(app); ++ph) {
      const PhaseStats& st = d.stats(app, ph);
      for (const arch::CoreSize c : arch::kAllCoreSizes) {
        for (int f = 0; f < arch::VfTable::kNumPoints; ++f) {
          for (int w = 1; w <= sys.llc.max_ways; ++w) {
            const Setting s{c, f, w};
            const arch::IntervalTiming direct = arch::evaluate_interval(
                st.characteristics(), st.memory_truth(c, w, sys.mem_latency_s),
                c, arch::VfTable::frequency_hz(f));
            const arch::IntervalTiming table = d.timing(app, ph, s);
            if (table.width_cycles != direct.width_cycles ||
                table.ilp_cycles != direct.ilp_cycles ||
                table.branch_cycles != direct.branch_cycles ||
                table.cache_cycles != direct.cache_cycles ||
                table.core_seconds != direct.core_seconds ||
                table.mem_seconds != direct.mem_seconds ||
                table.total_seconds != direct.total_seconds) {
              ++timing_mismatches;
            }
            const power::IntervalEnergy e_direct = d.power().interval_energy(
                c, arch::VfTable::point(f), direct, st.interval_instructions,
                st.dram_accesses(w));
            const power::IntervalEnergy e_table = d.energy(app, ph, s);
            if (e_table.core_dynamic_j != e_direct.core_dynamic_j ||
                e_table.core_static_j != e_direct.core_static_j ||
                e_table.memory_j != e_direct.memory_j) {
              ++energy_mismatches;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(timing_mismatches, 0);
  EXPECT_EQ(energy_mismatches, 0);
}

// The stored SoA columns (scalar accessors and contiguous w-rows) and the
// on-demand scalar accessors must be bit-identical to the corresponding
// fields of the rebuilt outcome structs over the full grid - the table is
// filled by exactly the same calls, and the batched LocalOptimizer sweep
// depends on the equivalence.
TEST(SimDb, SoaAccessorsMatchStructLookupsOverFullGrid) {
  const SimDb& d = db();
  const arch::SystemConfig& sys = d.system();
  int mismatches = 0;
  for (int app = 0; app < d.suite().size(); ++app) {
    for (int ph = 0; ph < d.num_phases(app); ++ph) {
      for (const arch::CoreSize c : arch::kAllCoreSizes) {
        for (int f = 0; f < arch::VfTable::kNumPoints; ++f) {
          const std::span<const double> t_row =
              d.total_seconds_row(app, ph, c, f);
          ASSERT_EQ(static_cast<int>(t_row.size()), sys.llc.max_ways);
          for (int w = 1; w <= sys.llc.max_ways; ++w) {
            const Setting s{c, f, w};
            const arch::IntervalTiming t = d.timing(app, ph, s);
            const power::IntervalEnergy e = d.energy(app, ph, s);
            if (d.total_seconds(app, ph, s) != t.total_seconds ||
                d.mem_seconds(app, ph, s) != t.mem_seconds ||
                d.total_joules(app, ph, s) != e.total_j() ||
                t_row[static_cast<std::size_t>(w - 1)] != t.total_seconds) {
              ++mismatches;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);

  // The one-read cell accessor returns exactly what the four separate
  // lookups return, bit for bit, over the full grid of a one-share and a
  // four-share database, ways and shares clamped from both sides included.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const SimDb* cdb : {&d, &qosrm::testing::shared_db(4, 4)}) {
    const arch::SystemConfig& csys = cdb->system();
    int cell_mismatches = 0;
    for (int app = 0; app < cdb->suite().size(); ++app) {
      for (int ph = 0; ph < cdb->num_phases(app); ++ph) {
        for (const arch::CoreSize c : arch::kAllCoreSizes) {
          for (int f = 0; f < arch::VfTable::kNumPoints; ++f) {
            for (int b = csys.bw.min_shares - 1; b <= csys.bw.max_shares + 1; ++b) {
              for (int w = 0; w <= csys.llc.max_ways + 2; ++w) {
                const Setting s{c, f, w, b};
                const IntervalCell cell = cdb->interval_cell(app, ph, s);
                if (bits(cell.total_seconds) != bits(cdb->total_seconds(app, ph, s)) ||
                    bits(cell.total_joules) != bits(cdb->total_joules(app, ph, s)) ||
                    bits(cell.baseline_time) != bits(cdb->baseline_time(app, ph)) ||
                    cell.key != cdb->interval_key(app, ph, s)) {
                  ++cell_mismatches;
                }
              }
            }
          }
        }
      }
    }
    EXPECT_EQ(cell_mismatches, 0) << csys.bw.max_shares << " shares";
  }
}

// The cell and row reads are inline in sim_db.hh; each still aborts on
// an app, phase or VF index outside the grid (ways and shares clamp).
TEST(SimDbDeathTest, CellReadOutsideTheGridAborts) {
  const SimDb& d = db();
  const int apps = d.suite().size();
  const int phases = d.num_phases(0);
  const Setting base = baseline_setting(d.system());
  Setting f_low = base;
  f_low.f_idx = -1;
  Setting f_high = base;
  f_high.f_idx = arch::VfTable::kNumPoints;
  EXPECT_DEATH((void)d.interval_cell(apps, 0, base), "app >= 0");
  EXPECT_DEATH((void)d.interval_cell(-1, 0, base), "app >= 0");
  EXPECT_DEATH((void)d.interval_cell(0, phases, base), "phase >= 0");
  EXPECT_DEATH((void)d.interval_cell(0, -1, base), "phase >= 0");
  EXPECT_DEATH((void)d.interval_cell(0, 0, f_high), "f_idx >= 0");
  EXPECT_DEATH((void)d.interval_cell(0, 0, f_low), "f_idx >= 0");
  EXPECT_DEATH((void)d.total_seconds(apps, 0, base), "app >= 0");
  EXPECT_DEATH((void)d.total_joules(0, phases, base), "phase >= 0");
  EXPECT_DEATH((void)d.interval_key(0, 0, f_high), "f_idx >= 0");
  EXPECT_DEATH((void)d.baseline_time(0, phases), "phase >= 0");
  EXPECT_DEATH((void)d.total_seconds_row(0, 0, arch::CoreSize::M,
                                         arch::VfTable::kNumPoints),
               "f_idx >= 0");
}

// Interval keys are the memo's identity: distinct (app, phase, c, f, clamped
// w) cells must get distinct dense keys inside [0, interval_key_space()), and
// way-clamped settings must share the key of the cell they resolve to.
TEST(SimDb, IntervalKeysAreDenseAndUnique) {
  const SimDb& d = db();
  const arch::SystemConfig& sys = d.system();
  std::vector<std::uint8_t> seen(
      static_cast<std::size_t>(d.interval_key_space()), 0);
  for (int app = 0; app < d.suite().size(); ++app) {
    for (int ph = 0; ph < d.num_phases(app); ++ph) {
      for (const arch::CoreSize c : arch::kAllCoreSizes) {
        for (int f = 0; f < arch::VfTable::kNumPoints; ++f) {
          for (int w = 1; w <= sys.llc.max_ways; ++w) {
            const std::int64_t key = d.interval_key(app, ph, {c, f, w});
            ASSERT_GE(key, 0);
            ASSERT_LT(key, d.interval_key_space());
            ASSERT_EQ(seen[static_cast<std::size_t>(key)], 0)
                << "duplicate key for app " << app << " phase " << ph;
            seen[static_cast<std::size_t>(key)] = 1;
          }
        }
      }
      // A clamped way count resolves to the same cell, hence the same key.
      EXPECT_EQ(d.interval_key(app, ph,
                               {arch::CoreSize::M, 0, sys.llc.max_ways + 5}),
                d.interval_key(app, ph, {arch::CoreSize::M, 0, sys.llc.max_ways}));
    }
  }
}

TEST(SimDb, CachedAggregatesMatchPerPhaseRecomputation) {
  const SimDb& d = db();
  for (int app = 0; app < d.suite().size(); app += 3) {
    for (int w = 1; w <= d.system().llc.max_ways; ++w) {
      double acc = 0.0;
      for (int ph = 0; ph < d.num_phases(app); ++ph) {
        acc += d.suite().app(app).phases[static_cast<std::size_t>(ph)].weight *
               d.stats(app, ph).mpki(w);
      }
      EXPECT_EQ(d.app_mpki(app, w), acc);
    }
    for (const arch::CoreSize c : arch::kAllCoreSizes) {
      double acc = 0.0;
      const int wb = d.system().llc.ways_per_core_baseline;
      for (int ph = 0; ph < d.num_phases(app); ++ph) {
        acc += d.suite().app(app).phases[static_cast<std::size_t>(ph)].weight *
               d.stats(app, ph).mlp_true(c, wb);
      }
      EXPECT_EQ(d.app_mlp(app, c), acc);
    }
    for (int ph = 0; ph < d.num_phases(app); ++ph) {
      EXPECT_EQ(d.baseline_time(app, ph),
                d.timing(app, ph, baseline_setting(d.system())).total_seconds);
    }
  }
}

/// FNV-1a digest over the exact bits of every PhaseStats field of every
/// phase: two characterizations agree on it iff they are bitwise equal (up
/// to a hash collision).
std::uint64_t characterization_digest(const SimDb& d) {
  Fnv1a64 h;
  const auto add_vec = [&h](const std::vector<double>& v) {
    h.add_u64(v.size());
    for (const double x : v) h.add_f64(x);
  };
  for (int a = 0; a < d.suite().size(); ++a) {
    for (int ph = 0; ph < d.num_phases(a); ++ph) {
      const PhaseStats& s = d.stats(a, ph);
      add_vec(s.misses);
      for (const std::vector<double>& lm : s.lm_true) add_vec(lm);
      for (const std::vector<double>& lm : s.lm_atd) add_vec(lm);
      for (const double x : {s.interval_instructions, s.llc_accesses,
                             s.write_frac, s.scale, s.ilp, s.cpi_branch,
                             s.cpi_cache}) {
        h.add_f64(x);
      }
    }
  }
  return h.digest();
}

// A serial build and a 4-lane one (jobs claimed in whatever order the lanes
// race) characterize every phase to the same bits.
TEST(SimDb, SerialBuildMatchesParallelBuild) {
  arch::SystemConfig sys;
  sys.cores = 2;
  const power::PowerModel power;
  SimDbOptions serial;
  serial.threads = 1;
  SimDbOptions parallel;
  parallel.threads = 3;
  const SimDb db_serial(spec_suite(), sys, power, serial);
  const SimDb db_parallel(spec_suite(), sys, power, parallel);
  EXPECT_EQ(characterization_digest(db_serial),
            characterization_digest(db_parallel));
}

// Pins the cold characterization of the spec suite at default options.
// Built fresh (never from a QOSRM_DB_CACHE_DIR snapshot), so a kernel change
// in the cache substrate that moves any count by one ulp fails here.
TEST(SimDb, CharacterizationDigestMatchesParent) {
  const SimDb fresh(spec_suite(), arch::SystemConfig{}, power::PowerModel{});
  EXPECT_EQ(characterization_digest(fresh), 0xa44ad29ef8204c6cULL);
}

// The same digest from a cold characterization at an explicit lane width
// of the leading-miss kernels: the width changes no bit.
void expect_digest_at_lane_width(int lane_width) {
  const arch::SystemConfig sys;
  const SimDbOptions options;
  const SimDb fresh(spec_suite(), sys, power::PowerModel{}, options.phase,
                    characterize_suite(spec_suite(), characterization_system(sys),
                                       options, lane_width));
  EXPECT_EQ(characterization_digest(fresh), 0xa44ad29ef8204c6cULL);
}

TEST(SimDb, CharacterizationDigestMatchesParentAtNarrowLanes) {
  expect_digest_at_lane_width(simd::kNarrowLanes);
}

TEST(SimDb, CharacterizationDigestMatchesParentAtWideLanes) {
  if (!simd::lane_width_available(simd::kWideLanes)) {
    GTEST_SKIP() << "16-lane kernels not compiled or not supported";
  }
  expect_digest_at_lane_width(simd::kWideLanes);
}

// The snapshot fixture characterizes once per CharacterizationSystem and
// builds every shared configuration from those stats. A cold build at a
// core count and bandwidth partitioning other than the default reads the
// same three values, so it must characterize to the same bits.
TEST(SimDb, CharacterizationReadsOnlyItsSystemValues) {
  const arch::SystemConfig sys = testing::shared_db_system(16, 4);
  ASSERT_EQ(characterization_system(sys),
            characterization_system(arch::SystemConfig{}));
  const SimDb fresh(spec_suite(), sys, power::PowerModel{});
  EXPECT_EQ(characterization_digest(fresh), 0xa44ad29ef8204c6cULL);
}

}  // namespace
}  // namespace qosrm::workload
