#include "rm/overheads.hh"

#include <gtest/gtest.h>

namespace qosrm::rm {
namespace {

using workload::Setting;

power::PowerModel pm;

TEST(Overheads, InstructionCountLinearInOps) {
  const OverheadModel model(pm);
  const double i0 = model.rm_instructions(0);
  const double i1000 = model.rm_instructions(1000);
  EXPECT_DOUBLE_EQ(i0, kRmInstrBase);
  EXPECT_DOUBLE_EQ(i1000 - i0, 1000 * kRmInstrPerOp);
}

TEST(Overheads, RmExecutionChargesTimeAndEnergy) {
  const OverheadModel model(pm);
  const Setting base{arch::CoreSize::M, arch::VfTable::kBaselineIndex, 8};
  const EnforcementCost cost = model.rm_execution(2000, base);
  // instructions / (ipc * f).
  EXPECT_NEAR(cost.time_s, model.rm_instructions(2000) / (2.0 * 2e9), 1e-12);
  EXPECT_GT(cost.energy_j, 0.0);
}

TEST(Overheads, RmExecutionIsTinyVersusInterval) {
  // Paper: ~0.1% of a 100M-instruction interval for an 8-core system.
  const OverheadModel model(pm);
  const Setting base{arch::CoreSize::M, arch::VfTable::kBaselineIndex, 8};
  const EnforcementCost cost = model.rm_execution(5000, base);
  const double interval_s = 100e6 / 2.0 / 2e9;
  EXPECT_LT(cost.time_s / interval_s, 0.01);
}

TEST(Overheads, DvfsTransitionMatchesPaperConstants) {
  const OverheadModel model(pm);
  const Setting from{arch::CoreSize::M, 4, 8};
  Setting to = from;
  to.f_idx = 9;
  const EnforcementCost cost = model.transition(from, to);
  EXPECT_DOUBLE_EQ(cost.time_s, 15e-6);
  EXPECT_DOUBLE_EQ(cost.energy_j, 3e-6);
}

TEST(Overheads, NoChangeNoCost) {
  const OverheadModel model(pm);
  const Setting s{arch::CoreSize::M, 4, 8};
  const EnforcementCost cost = model.transition(s, s);
  EXPECT_DOUBLE_EQ(cost.time_s, 0.0);
  EXPECT_DOUBLE_EQ(cost.energy_j, 0.0);
}

TEST(Overheads, WayMaskChangeIsFree) {
  const OverheadModel model(pm);
  const Setting from{arch::CoreSize::M, 4, 8};
  Setting to = from;
  to.w = 12;
  const EnforcementCost cost = model.transition(from, to);
  EXPECT_DOUBLE_EQ(cost.time_s, 0.0);
}

TEST(Overheads, ResizeDrainsPipeline) {
  const OverheadModel model(pm);
  const Setting from{arch::CoreSize::L, arch::VfTable::kBaselineIndex, 8};
  Setting to = from;
  to.c = arch::CoreSize::M;
  const EnforcementCost cost = model.transition(from, to);
  // ROB(L)/IPC cycles at 2 GHz: 256/2 = 128 cycles, 64 ns.
  EXPECT_NEAR(cost.time_s, 256.0 / 2.0 / 2e9, 1e-12);
  EXPECT_GT(cost.energy_j, 0.0);
}

TEST(Overheads, CombinedTransitionSumsComponents) {
  const OverheadModel model(pm);
  const Setting from{arch::CoreSize::M, arch::VfTable::kBaselineIndex, 8};
  const Setting to{arch::CoreSize::L, 12, 12};
  const EnforcementCost cost = model.transition(from, to);
  // DVFS switch plus a 128-entry drain at the old 2 GHz operating point.
  EXPECT_NEAR(cost.time_s, 15e-6 + 128.0 / 2.0 / 2e9, 1e-12);
}

TEST(Overheads, AccumulationOperator) {
  EnforcementCost total;
  total += {1e-6, 2e-6};
  total += {3e-6, 4e-6};
  EXPECT_DOUBLE_EQ(total.time_s, 4e-6);
  EXPECT_DOUBLE_EQ(total.energy_j, 6e-6);
}

}  // namespace
}  // namespace qosrm::rm
