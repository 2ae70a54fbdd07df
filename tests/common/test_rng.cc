#include "common/rng.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <vector>

namespace qosrm {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double lo = 1.0, hi = 0.0, sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(-2.5, 7.5);
    ASSERT_GE(x, -2.5);
    ASSERT_LT(x, 7.5);
  }
}

TEST(Rng, UniformU64Unbiased) {
  Rng rng(11);
  std::array<int, 3> counts{};
  constexpr int kN = 90000;
  for (int i = 0; i < kN; ++i) ++counts[rng.uniform_u64(3)];
  for (const int c : counts) EXPECT_NEAR(c, kN / 3, kN / 60);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, GeometricMeanMatches) {
  Rng rng(19);
  const double p = 0.25;
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += static_cast<double>(rng.geometric(p));
  EXPECT_NEAR(sum / kN, (1.0 - p) / p, 0.05);
}

TEST(Rng, GeometricWithCertaintyIsZero) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric(1.0), 0u);
}

// The gap draws of the trace synthesizer go through GeometricDraw with
// log1p(-p) computed once; a draw must equal the plain inverse CDF bit for
// bit, and p = 1 (what a gap mean <= 1 maps to) must consume nothing.
TEST(Rng, GeometricDrawIsTheInverseCdfBitForBit) {
  const double ps[] = {1e-9, 1e-4, 1.0 / 40.0, 0.25, 0.5, 1.0 / 1.5,
                       0.9, 1.0 - 1e-9, std::nextafter(1.0, 0.0), 1.0};
  for (const double p : ps) {
    const GeometricDraw draw(p);
    Rng rng(41);
    Rng via_member(41);
    Rng reference(41);
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t got = draw(rng);
      EXPECT_EQ(via_member.geometric(p), got) << "p=" << p;
      if (p >= 1.0) {
        ASSERT_EQ(got, 0u);
        continue;
      }
      const double u = reference.uniform();
      const auto expected =
          static_cast<std::uint64_t>(std::floor(std::log1p(-u) / std::log1p(-p)));
      ASSERT_EQ(got, expected) << "p=" << p << " draw " << i;
    }
    // Same stream position: p = 1 consumed no draw, every other p one each.
    const std::uint64_t next = reference.next();
    EXPECT_EQ(rng.next(), next) << "p=" << p;
    EXPECT_EQ(via_member.next(), next) << "p=" << p;
  }
}

TEST(Rng, WeightedChoiceFollowsWeights) {
  Rng rng(29);
  const std::vector<double> w = {1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  constexpr int kN = 80000;
  for (int i = 0; i < kN; ++i) ++counts[rng.weighted_choice(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / kN, 0.25, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / kN, 0.75, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  shuffle(v, rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, ShuffleDeterministic) {
  std::vector<int> a = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> b = a;
  Rng r1(41), r2(41);
  shuffle(a, r1);
  shuffle(b, r2);
  EXPECT_EQ(a, b);
}

TEST(Rng, SplitMix64KnownSequenceIsStable) {
  // Regression anchor: the suite's trace seeds derive from splitmix64, so
  // its output must never change across refactors.
  std::uint64_t state = 0;
  const std::uint64_t first = splitmix64(state);
  std::uint64_t state2 = 0;
  EXPECT_EQ(first, splitmix64(state2));
  EXPECT_NE(splitmix64(state), first);
}

}  // namespace
}  // namespace qosrm
