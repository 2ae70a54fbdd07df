#include "arch/core_config.hh"

#include <gtest/gtest.h>

#include <algorithm>

#include "workload/phase_stats.hh"

namespace qosrm::arch {
namespace {

TEST(CoreConfig, TableIParameters) {
  // Paper Table I, verbatim.
  const CoreParams& s = core_params(CoreSize::S);
  EXPECT_EQ(s.issue_width, 2);
  EXPECT_EQ(s.rob, 64);
  EXPECT_EQ(s.rs, 16);
  EXPECT_EQ(s.lsq, 10);

  const CoreParams& m = core_params(CoreSize::M);
  EXPECT_EQ(m.issue_width, 4);
  EXPECT_EQ(m.rob, 128);
  EXPECT_EQ(m.rs, 64);
  EXPECT_EQ(m.lsq, 32);

  const CoreParams& l = core_params(CoreSize::L);
  EXPECT_EQ(l.issue_width, 8);
  EXPECT_EQ(l.rob, 256);
  EXPECT_EQ(l.rs, 128);
  EXPECT_EQ(l.lsq, 64);
}

TEST(CoreConfig, BaselineIsMedium) {
  EXPECT_EQ(kBaselineCoreSize, CoreSize::M);
}

TEST(CoreConfig, EnergyScalesOrderedBySize) {
  // Energy per instruction and leakage must grow with core size - the
  // "roughly linear relation between core size and energy" premise.
  EXPECT_LT(core_params(CoreSize::S).epi_scale, core_params(CoreSize::M).epi_scale);
  EXPECT_LT(core_params(CoreSize::M).epi_scale, core_params(CoreSize::L).epi_scale);
  EXPECT_LT(core_params(CoreSize::S).leak_scale, core_params(CoreSize::M).leak_scale);
  EXPECT_LT(core_params(CoreSize::M).leak_scale, core_params(CoreSize::L).leak_scale);
  EXPECT_DOUBLE_EQ(core_params(CoreSize::M).epi_scale, 1.0);
  EXPECT_DOUBLE_EQ(core_params(CoreSize::M).leak_scale, 1.0);
}

TEST(CoreConfig, UpsizingCostsLessThanQuadratic) {
  // The core-size energy trade must be cheaper than the DVFS V^2 cost for
  // the same nominal speedup - the paper's central premise. Doubling width
  // (M->L) costs epi_scale(L); doubling frequency-equivalent throughput via
  // VF would cost ~ (V(hi)/V(lo))^2 * 2 in power.
  EXPECT_LT(core_params(CoreSize::L).epi_scale, 2.0);
}

TEST(CoreConfig, MaxRobMatchesLargestCore) {
  // The MLP-ATD instruction-index window (paper Section III-C) is four
  // times the largest ROB.
  int max_rob = 0;
  for (const CoreSize c : kAllCoreSizes) {
    max_rob = std::max(max_rob, core_params(c).rob);
  }
  EXPECT_EQ(max_rob, core_params(CoreSize::L).rob);
  EXPECT_EQ(4 * max_rob, 1 << workload::PhaseStatsOptions{}.mlp_index_bits);
}

TEST(CoreConfig, NamesAndIndices) {
  EXPECT_EQ(core_size_name(CoreSize::S), "S");
  EXPECT_EQ(core_size_name(CoreSize::M), "M");
  EXPECT_EQ(core_size_name(CoreSize::L), "L");
  EXPECT_EQ(core_size_index(CoreSize::S), 0);
  EXPECT_EQ(core_size_index(CoreSize::M), 1);
  EXPECT_EQ(core_size_index(CoreSize::L), 2);
  EXPECT_EQ(kAllCoreSizes.size(), static_cast<std::size_t>(kNumCoreSizes));
}

}  // namespace
}  // namespace qosrm::arch
