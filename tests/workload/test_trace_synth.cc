#include "workload/trace_synth.hh"

#include <gtest/gtest.h>

#include "cache/miss_curve.hh"
#include "support/recency_ref.hh"
#include "workload/phase_stats.hh"
#include "workload/spec_suite.hh"

namespace qosrm::workload {
namespace {

PhaseParams base_phase() {
  PhaseParams p;
  p.lpki = 5.0;
  p.reuse = make_stack_profile(0.4, 0.4, 8.0, 2.0, 0.2);
  p.dep_frac = 0.2;
  p.burst_size = 6.0;
  p.intra_gap = 25.0;
  return p;
}

TEST(TraceSynth, DeterministicInSeed) {
  const auto a = synthesize_trace(base_phase(), {}, 42);
  const auto b = synthesize_trace(base_phase(), {}, 42);
  ASSERT_EQ(a.accesses.size(), b.accesses.size());
  for (std::size_t i = 0; i < a.accesses.size(); ++i) {
    EXPECT_EQ(a.accesses[i].inst_index, b.accesses[i].inst_index);
    EXPECT_EQ(a.accesses[i].tag, b.accesses[i].tag);
    EXPECT_EQ(a.accesses[i].set, b.accesses[i].set);
  }
}

TEST(TraceSynth, SeedChangesTrace) {
  const auto a = synthesize_trace(base_phase(), {}, 1);
  const auto b = synthesize_trace(base_phase(), {}, 2);
  bool differs = a.accesses.size() != b.accesses.size();
  for (std::size_t i = 0; !differs && i < a.accesses.size(); ++i) {
    differs = a.accesses[i].tag != b.accesses[i].tag;
  }
  EXPECT_TRUE(differs);
}

TEST(TraceSynth, InstructionIndicesStrictlyIncrease) {
  const auto t = synthesize_trace(base_phase(), {}, 3);
  for (std::size_t i = 1; i < t.accesses.size(); ++i) {
    EXPECT_GT(t.accesses[i].inst_index, t.accesses[i - 1].inst_index);
  }
}

TEST(TraceSynth, DensityMatchesLpki) {
  PhaseParams p = base_phase();
  p.lpki = 8.0;
  const auto t = synthesize_trace(p, {}, 5);
  const double measured_lpki = static_cast<double>(t.accesses.size()) /
                               (t.represented_instructions / 1000.0);
  EXPECT_NEAR(measured_lpki, 8.0, 8.0 * 0.15);
}

TEST(TraceSynth, SetsWithinConfiguredRange) {
  TraceSynthConfig cfg;
  cfg.sets = 32;
  const auto t = synthesize_trace(base_phase(), cfg, 7);
  for (const auto& a : t.accesses) EXPECT_LT(a.set, 32u);
}

TEST(TraceSynth, DepFracControlsDependentLoads) {
  PhaseParams chained = base_phase();
  chained.dep_frac = 0.8;
  PhaseParams indep = base_phase();
  indep.dep_frac = 0.0;

  const auto tc = synthesize_trace(chained, {}, 9);
  const auto ti = synthesize_trace(indep, {}, 9);
  auto dep_count = [](const SynthesizedTrace& t) {
    int n = 0;
    for (const auto& a : t.accesses) n += a.depends_on_prev;
    return n;
  };
  EXPECT_EQ(dep_count(ti), 0);
  EXPECT_GT(dep_count(tc), static_cast<int>(tc.accesses.size()) / 3);
}

TEST(TraceSynth, ColdProfileProducesFlatHighMissCurve) {
  PhaseParams p = base_phase();
  p.reuse = make_stack_profile(0.2, 0.02, 4.0, 2.0, 0.78);
  const auto t = synthesize_trace(p, {}, 11);
  cache::RecencyProfiler prof(64, 16);
  const auto recency = prof.annotate(t.accesses);
  const auto curve = cache::MissCurve::from_recency(recency, 16);
  const double m4 = curve.misses(4);
  const double m16 = curve.misses(16);
  EXPECT_GT(m16, 0.6 * static_cast<double>(t.accesses.size()));
  EXPECT_LT((m4 - m16) / m4, 0.15);  // flat: CI behaviour
}

TEST(TraceSynth, SensitiveProfileProducesSteepCurve) {
  PhaseParams p = base_phase();
  p.reuse = make_stack_profile(0.35, 0.55, 8.0, 2.0, 0.10);
  const auto t = synthesize_trace(p, {}, 13);
  cache::RecencyProfiler prof(64, 16);
  const auto recency = prof.annotate(t.accesses);
  const auto curve = cache::MissCurve::from_recency(recency, 16);
  // Going from 4 to 16 ways must remove a large share of misses: CS behaviour.
  EXPECT_GT(curve.misses(4), 2.0 * curve.misses(16));
}

TEST(TraceSynth, RealizedReusePositionsMatchProfile) {
  // The generator realizes requested recency positions exactly (given
  // sufficient occupancy); verify the measured histogram tracks the profile.
  PhaseParams p = base_phase();
  p.reuse = make_stack_profile(0.5, 0.3, 6.0, 1.5, 0.2);
  TraceSynthConfig cfg;
  cfg.represented_instructions = 4e6;
  const auto t = synthesize_trace(p, cfg, 17);
  cache::RecencyProfiler prof(cfg.sets, 16);
  const auto recency = prof.annotate(t.accesses);

  double hits01 = 0.0, cold = 0.0;
  for (const std::uint8_t r : recency) {
    if (r == cache::kRecencyMiss) {
      cold += 1.0;
    } else if (r <= 1) {
      hits01 += 1.0;
    }
  }
  const double n = static_cast<double>(recency.size());
  EXPECT_NEAR(hits01 / n, 0.5, 0.06);
  // Cold fraction also includes the warm-up transient, so allow extra room.
  EXPECT_NEAR(cold / n, 0.2, 0.08);
}

// The characterization reads its recency annotation from the synthesizer's
// shadow directory instead of re-simulating the trace; both must agree on
// every access of every phase it characterizes.
TEST(TraceSynth, ShadowRecencyMatchesProfiler) {
  const TraceSynthConfig cfg = PhaseStatsOptions{}.synth;
  const SpecSuite& suite = spec_suite();
  for (int a = 0; a < suite.size(); ++a) {
    const AppProfile& app = suite.app(a);
    for (std::size_t ph = 0; ph < app.phases.size(); ++ph) {
      const auto t = synthesize_trace(app.phases[ph], cfg, app.trace_seed + ph);
      cache::RecencyProfiler prof(cfg.sets, cfg.max_ways);
      ASSERT_EQ(t.recency, prof.annotate(t.accesses)) << app.name << " phase " << ph;
    }
  }
}

TEST(TraceSynth, BurstSizeBoundsRunLengths) {
  PhaseParams p = base_phase();
  p.burst_size = 10.0;
  p.lpki = 10.0;
  const auto t = synthesize_trace(p, {}, 19);
  EXPECT_GT(t.accesses.size(), 1000u);
}

}  // namespace
}  // namespace qosrm::workload
