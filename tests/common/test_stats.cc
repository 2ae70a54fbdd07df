#include "common/stats.hh"

#include <gtest/gtest.h>

namespace qosrm {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(WeightedStats, MatchesUnweightedWhenUniform) {
  RunningStats plain;
  WeightedStats weighted;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    plain.add(x);
    weighted.add(x, 1.0);
  }
  EXPECT_NEAR(weighted.mean(), plain.mean(), 1e-12);
  EXPECT_NEAR(weighted.variance(), 4.0, 1e-12);  // classic example set
  EXPECT_NEAR(weighted.stddev(), 2.0, 1e-12);
}

TEST(WeightedStats, WeightsScaleContribution) {
  WeightedStats s;
  s.add(1.0, 3.0);  // same as adding 1.0 three times
  s.add(4.0, 1.0);
  EXPECT_DOUBLE_EQ(s.mean(), (3.0 * 1.0 + 4.0) / 4.0);
}

TEST(WeightedStats, ZeroWeightIgnored) {
  WeightedStats s;
  s.add(100.0, 0.0);
  EXPECT_EQ(s.total_weight(), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(WeightedStats, VarianceNonNegativeUnderRoundoff) {
  WeightedStats s;
  // Nearly identical large values: E[x^2]-E[x]^2 can go slightly negative
  // numerically; the implementation must clamp.
  for (int i = 0; i < 100; ++i) s.add(1e9 + 0.001 * i, 0.1);
  EXPECT_GE(s.variance(), 0.0);
}

}  // namespace
}  // namespace qosrm
