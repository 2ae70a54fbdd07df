#include "workload/phase_stats.hh"

#include <gtest/gtest.h>

#include "arch/dvfs.hh"

namespace qosrm::workload {
namespace {

PhaseParams ps_phase() {
  PhaseParams p;
  p.lpki = 8.0;
  p.reuse = make_stack_profile(0.35, 0.45, 8.0, 2.0, 0.2);
  p.dep_frac = 0.05;
  p.burst_size = 12.0;
  p.intra_gap = 15.0;
  p.ilp = 3.5;
  p.cpi_branch = 0.05;
  p.cpi_cache = 0.12;
  return p;
}

PhaseParams chained_phase() {
  PhaseParams p = ps_phase();
  p.dep_frac = 0.85;
  p.burst_size = 4.0;
  p.intra_gap = 35.0;
  return p;
}

CharacterizationSystem sys2() {
  arch::SystemConfig s;
  s.cores = 2;
  return characterization_system(s);
}

TEST(PhaseStats, CountsScaleToInterval) {
  const PhaseStats st = characterize_phase(ps_phase(), sys2(), {}, 1);
  EXPECT_DOUBLE_EQ(st.interval_instructions, 100e6);
  EXPECT_GT(st.scale, 1.0);
  // lpki 8 -> about 800K accesses per 100M-instruction interval.
  EXPECT_NEAR(st.llc_accesses, 800e3, 160e3);
}

TEST(PhaseStats, MissCurveMonotone) {
  const PhaseStats st = characterize_phase(ps_phase(), sys2(), {}, 2);
  for (int w = 2; w <= st.max_ways(); ++w) {
    EXPECT_LE(st.misses[static_cast<std::size_t>(w - 1)],
              st.misses[static_cast<std::size_t>(w - 2)]);
  }
}

TEST(PhaseStats, LeadingBoundedByTotalMisses) {
  const PhaseStats st = characterize_phase(ps_phase(), sys2(), {}, 3);
  for (int c = 0; c < arch::kNumCoreSizes; ++c) {
    for (int w = 1; w <= st.max_ways(); ++w) {
      const auto wi = static_cast<std::size_t>(w - 1);
      EXPECT_LE(st.lm_true[static_cast<std::size_t>(c)][wi], st.misses[wi] + 1e-9);
      EXPECT_LE(st.lm_atd[static_cast<std::size_t>(c)][wi], st.misses[wi] + 1e-9);
    }
  }
}

TEST(PhaseStats, BurstyPhaseHasGrowingMlp) {
  const PhaseStats st = characterize_phase(ps_phase(), sys2(), {}, 4);
  const double mlp_s = st.mlp_true(arch::CoreSize::S, 8);
  const double mlp_m = st.mlp_true(arch::CoreSize::M, 8);
  const double mlp_l = st.mlp_true(arch::CoreSize::L, 8);
  EXPECT_GT(mlp_m, mlp_s * 1.15);
  EXPECT_GT(mlp_l, mlp_m * 1.15);
  EXPECT_GE(mlp_l, 2.0);
}

TEST(PhaseStats, ChainedPhaseHasFlatLowMlp) {
  const PhaseStats st = characterize_phase(chained_phase(), sys2(), {}, 5);
  const double mlp_s = st.mlp_true(arch::CoreSize::S, 8);
  const double mlp_l = st.mlp_true(arch::CoreSize::L, 8);
  EXPECT_LT(mlp_l, 2.2);
  EXPECT_LT(mlp_l - mlp_s, 0.5);
}

TEST(PhaseStats, AtdEstimateTracksOracle) {
  const PhaseStats st = characterize_phase(ps_phase(), sys2(), {}, 6);
  // The hardware heuristic should stay within ~35% of the oracle at the
  // baseline configuration where the arrival stream is exact.
  for (const arch::CoreSize c : arch::kAllCoreSizes) {
    const auto ci = static_cast<std::size_t>(arch::core_size_index(c));
    const double atd = st.lm_atd[ci][7];
    const double oracle = st.lm_true[ci][7];
    EXPECT_NEAR(atd, oracle, oracle * 0.35) << core_size_name(c);
  }
}

TEST(PhaseStats, MpkiConsistentWithMisses) {
  const PhaseStats st = characterize_phase(ps_phase(), sys2(), {}, 7);
  EXPECT_NEAR(st.mpki(8), st.misses[7] / (st.interval_instructions / 1000.0),
              1e-9);
}

TEST(PhaseStats, CharacteristicsViewCopiesCoreParams) {
  const PhaseParams p = ps_phase();
  const PhaseStats st = characterize_phase(p, sys2(), {}, 8);
  const arch::IntervalCharacteristics c = st.characteristics();
  EXPECT_DOUBLE_EQ(c.ilp, p.ilp);
  EXPECT_DOUBLE_EQ(c.cpi_branch, p.cpi_branch);
  EXPECT_DOUBLE_EQ(c.cpi_private_cache, p.cpi_cache);
  EXPECT_DOUBLE_EQ(c.instructions, 100e6);
}

TEST(PhaseStats, MemoryTruthSelectsPerSetting) {
  const PhaseStats st = characterize_phase(ps_phase(), sys2(), {}, 9);
  const auto mem_s2 = st.memory_truth(arch::CoreSize::S, 2, 130e-9);
  const auto mem_l16 = st.memory_truth(arch::CoreSize::L, 16, 130e-9);
  EXPECT_GT(mem_s2.llc_misses, mem_l16.llc_misses);
  EXPECT_GT(mem_s2.leading_misses, mem_l16.leading_misses);
  EXPECT_DOUBLE_EQ(mem_s2.mem_latency_s, 130e-9);
}

TEST(PhaseStats, DeterministicAcrossCalls) {
  const PhaseStats a = characterize_phase(ps_phase(), sys2(), {}, 10);
  const PhaseStats b = characterize_phase(ps_phase(), sys2(), {}, 10);
  EXPECT_EQ(a.misses, b.misses);
  for (int c = 0; c < arch::kNumCoreSizes; ++c) {
    EXPECT_EQ(a.lm_true[static_cast<std::size_t>(c)],
              b.lm_true[static_cast<std::size_t>(c)]);
    EXPECT_EQ(a.lm_atd[static_cast<std::size_t>(c)],
              b.lm_atd[static_cast<std::size_t>(c)]);
  }
}

}  // namespace
}  // namespace qosrm::workload
