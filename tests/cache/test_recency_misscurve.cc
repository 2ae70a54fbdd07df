#include <gtest/gtest.h>

#include "cache/miss_curve.hh"
#include "common/rng.hh"
#include "support/recency_ref.hh"

namespace qosrm::cache {
namespace {

std::vector<LlcAccess> random_trace(int n, int sets, int tags, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<LlcAccess> trace;
  trace.reserve(static_cast<std::size_t>(n));
  std::uint64_t inst = 0;
  for (int i = 0; i < n; ++i) {
    inst += 1 + rng.uniform_u64(100);
    trace.push_back({inst,
                     static_cast<std::uint32_t>(rng.uniform_u64(sets)),
                     rng.uniform_u64(static_cast<std::uint64_t>(tags)), false});
  }
  return trace;
}

TEST(Recency, AnnotationMatchesManualLru) {
  RecencyProfiler prof(1, 4);
  std::vector<LlcAccess> trace = {
      {1, 0, 10, false}, {2, 0, 11, false}, {3, 0, 10, false}, {4, 0, 12, false},
      {5, 0, 11, false},
  };
  const auto recency = prof.annotate(trace);
  EXPECT_EQ(recency[0], kRecencyMiss);  // 10 cold
  EXPECT_EQ(recency[1], kRecencyMiss);  // 11 cold
  EXPECT_EQ(recency[2], 1);             // 10 at position 1
  EXPECT_EQ(recency[3], kRecencyMiss);  // 12 cold
  EXPECT_EQ(recency[4], 2);             // 11 behind 12, 10
}

TEST(Recency, MissesAtHelper) {
  EXPECT_TRUE(misses_at(kRecencyMiss, 16));
  EXPECT_TRUE(misses_at(8, 8));
  EXPECT_FALSE(misses_at(7, 8));
  EXPECT_FALSE(misses_at(0, 1));
}

TEST(MissCurve, FromRecencyCountsSuffix) {
  // recency values: two at position 0, one at 2, one cold.
  const std::vector<std::uint8_t> recency = {0, 0, 2, kRecencyMiss};
  const MissCurve curve = MissCurve::from_recency(recency, 4);
  EXPECT_DOUBLE_EQ(curve.misses(4), 1.0);   // cold only
  EXPECT_DOUBLE_EQ(curve.misses(3), 1.0);   // hit at 2 still hits
  EXPECT_DOUBLE_EQ(curve.misses(2), 2.0);   // position-2 hit now misses
  EXPECT_DOUBLE_EQ(curve.misses(1), 2.0);
}

TEST(MissCurve, MonotoneNonIncreasingOnRandomTraces) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const auto trace = random_trace(20000, 16, 200, seed);
    RecencyProfiler prof(16, 16);
    const auto recency = prof.annotate(trace);
    const MissCurve curve = MissCurve::from_recency(recency, 16);
    for (int w = 2; w <= 16; ++w) {
      EXPECT_LE(curve.misses(w), curve.misses(w - 1)) << "seed " << seed;
    }
  }
}

TEST(MissCurve, ClampsOutOfRangeWays) {
  const std::vector<std::uint8_t> recency = {0, 1, 1, kRecencyMiss};
  const MissCurve curve = MissCurve::from_recency(recency, 2);
  EXPECT_DOUBLE_EQ(curve.misses(0), curve.misses(1));
  EXPECT_DOUBLE_EQ(curve.misses(99), curve.misses(2));
}

TEST(MissCurve, TotalMissesEqualTraceStatistics) {
  const auto trace = random_trace(5000, 8, 64, 99);
  RecencyProfiler prof(8, 16);
  const auto recency = prof.annotate(trace);
  const MissCurve curve = MissCurve::from_recency(recency, 16);
  // At w=1 every non-MRU access misses; count them directly.
  double expected = 0.0;
  for (const std::uint8_t r : recency) expected += misses_at(r, 1) ? 1.0 : 0.0;
  EXPECT_DOUBLE_EQ(curve.misses(1), expected);
}

}  // namespace
}  // namespace qosrm::cache
