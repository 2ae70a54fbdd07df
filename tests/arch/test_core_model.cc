#include "arch/core_model.hh"

#include <gtest/gtest.h>

#include "arch/dvfs.hh"

namespace qosrm::arch {
namespace {

IntervalCharacteristics chars(double instr = 100e6, double ilp = 4.0,
                              double bp = 0.05, double cc = 0.10) {
  return {instr, ilp, bp, cc};
}

MemoryBehaviour mem(double misses = 0.0, double lm = 0.0) {
  return {misses, lm, 100e-9};
}

/// Sustained IPC of the ground-truth model on a compute-only interval: the
/// harmonic combination 1 / (1/D + 1/ILP_eff).
double compute_ipc(CoreSize c, double ilp) {
  const auto t = evaluate_interval(chars(100e6, ilp, 0.0, 0.0), mem(), c, 2e9);
  return 100e6 / t.busy_cycles();
}

TEST(CoreModel, EffectiveIpcSaturates) {
  // IPC approaches min(D, ILP) from below.
  EXPECT_LT(compute_ipc(CoreSize::L, 100.0), 8.0);
  EXPECT_GT(compute_ipc(CoreSize::L, 100.0), 7.0);
  EXPECT_LT(compute_ipc(CoreSize::S, 100.0), 2.0);
}

TEST(CoreModel, EffectiveIpcGrowsWithWidthAndIlp) {
  EXPECT_GT(compute_ipc(CoreSize::M, 4.0), compute_ipc(CoreSize::S, 4.0));
  EXPECT_GT(compute_ipc(CoreSize::L, 4.0), compute_ipc(CoreSize::M, 4.0));
  EXPECT_GT(compute_ipc(CoreSize::M, 6.0), compute_ipc(CoreSize::M, 2.0));
}

TEST(CoreModel, WindowIlpFactorOrdered) {
  EXPECT_LT(window_ilp_factor(CoreSize::S), 1.0);
  EXPECT_DOUBLE_EQ(window_ilp_factor(CoreSize::M), 1.0);
  EXPECT_GT(window_ilp_factor(CoreSize::L), 1.0);
}

TEST(CoreModel, WidthCyclesScaleExactlyWithDispatchWidth) {
  const auto t_m = evaluate_interval(chars(), mem(), CoreSize::M, 2e9);
  const auto t_l = evaluate_interval(chars(), mem(), CoreSize::L, 2e9);
  EXPECT_DOUBLE_EQ(t_m.width_cycles, 100e6 / 4.0);
  EXPECT_DOUBLE_EQ(t_l.width_cycles, 100e6 / 8.0);
}

TEST(CoreModel, BranchAndCacheCyclesSizeInvariant) {
  const auto t_s = evaluate_interval(chars(), mem(), CoreSize::S, 2e9);
  const auto t_l = evaluate_interval(chars(), mem(), CoreSize::L, 2e9);
  EXPECT_DOUBLE_EQ(t_s.branch_cycles, t_l.branch_cycles);
  EXPECT_DOUBLE_EQ(t_s.cache_cycles, t_l.cache_cycles);
}

TEST(CoreModel, CoreTimeScalesInverselyWithFrequency) {
  const auto slow = evaluate_interval(chars(), mem(), CoreSize::M, 1e9);
  const auto fast = evaluate_interval(chars(), mem(), CoreSize::M, 2e9);
  EXPECT_NEAR(slow.core_seconds, 2.0 * fast.core_seconds, 1e-12);
}

TEST(CoreModel, MemTimeIsFrequencyInvariant) {
  const auto slow = evaluate_interval(chars(), mem(1e6, 2e5), CoreSize::M, 1e9);
  const auto fast = evaluate_interval(chars(), mem(1e6, 2e5), CoreSize::M, 3e9);
  EXPECT_DOUBLE_EQ(slow.mem_seconds, fast.mem_seconds);
  EXPECT_DOUBLE_EQ(slow.mem_seconds, 2e5 * 100e-9);
}

TEST(CoreModel, OnlyLeadingMissesStallTheCore) {
  // 1M misses but only 100K leading -> stall time uses the leading count.
  const auto t = evaluate_interval(chars(), mem(1e6, 1e5), CoreSize::M, 2e9);
  EXPECT_DOUBLE_EQ(t.mem_seconds, 1e5 * 100e-9);
}

TEST(CoreModel, TotalIsCorePlusMem) {
  const auto t = evaluate_interval(chars(), mem(5e5, 1e5), CoreSize::M, 2e9);
  EXPECT_DOUBLE_EQ(t.total_seconds, t.core_seconds + t.mem_seconds);
  EXPECT_DOUBLE_EQ(t.busy_cycles(), t.width_cycles + t.ilp_cycles +
                                        t.branch_cycles + t.cache_cycles);
}

TEST(CoreModel, BiggerCoreNeverSlowerSameFrequency) {
  // With non-decreasing window factors and same leading misses, upsizing
  // cannot hurt at a fixed frequency.
  for (const double ilp : {1.2, 2.0, 4.0, 8.0}) {
    const auto t_s =
        evaluate_interval(chars(100e6, ilp), mem(1e5, 5e4), CoreSize::S, 2e9);
    const auto t_m =
        evaluate_interval(chars(100e6, ilp), mem(1e5, 5e4), CoreSize::M, 2e9);
    const auto t_l =
        evaluate_interval(chars(100e6, ilp), mem(1e5, 5e4), CoreSize::L, 2e9);
    EXPECT_LE(t_m.total_seconds, t_s.total_seconds) << "ilp=" << ilp;
    EXPECT_LE(t_l.total_seconds, t_m.total_seconds) << "ilp=" << ilp;
  }
}

TEST(CoreModel, LowIlpShrinksWidthBenefit) {
  // At ILP 1.2 the M->L speedup must be well below the 2x width ratio.
  const auto t_m = evaluate_interval(chars(100e6, 1.2, 0, 0), mem(), CoreSize::M, 2e9);
  const auto t_l = evaluate_interval(chars(100e6, 1.2, 0, 0), mem(), CoreSize::L, 2e9);
  const double speedup = t_m.total_seconds / t_l.total_seconds;
  EXPECT_LT(speedup, 1.25);
  EXPECT_GT(speedup, 1.0);
}

}  // namespace
}  // namespace qosrm::arch
