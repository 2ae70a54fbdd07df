#include "common/stats.hh"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"

namespace qosrm {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic example set
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(5);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-10, 10);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  const double mean = a.mean();
  a.merge(b);  // empty rhs: no change
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  b.merge(a);  // empty lhs: adopt rhs
  EXPECT_DOUBLE_EQ(b.mean(), mean);
}

TEST(WeightedStats, MatchesUnweightedWhenUniform) {
  RunningStats plain;
  WeightedStats weighted;
  for (const double x : {1.0, 2.0, 3.0, 10.0}) {
    plain.add(x);
    weighted.add(x, 1.0);
  }
  EXPECT_NEAR(weighted.mean(), plain.mean(), 1e-12);
  EXPECT_NEAR(weighted.variance(), plain.variance(), 1e-12);
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

TEST(WeightedStats, MergeMatchesCombined) {
  WeightedStats a, b, all;
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0, 1);
    const double w = rng.uniform(0.1, 2.0);
    all.add(x, w);
    (i % 3 == 0 ? a : b).add(x, w);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_NEAR(a.total_weight(), all.total_weight(), 1e-12);
}

}  // namespace
}  // namespace qosrm
