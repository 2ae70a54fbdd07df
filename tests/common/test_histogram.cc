#include "common/histogram.hh"

#include <gtest/gtest.h>

#include <limits>

namespace qosrm {
namespace {

TEST(Histogram, BinsPartitionRange) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_EQ(h.bin_count(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), h.bin_hi(0));
}

TEST(Histogram, AddFallsInCorrectBin) {
  Histogram h(0.0, 1.0, 4);
  h.add(0.1);
  h.add(0.3);
  h.add(0.3);
  h.add(0.9);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(1), 2.0);
  EXPECT_DOUBLE_EQ(h.count(2), 0.0);
  EXPECT_DOUBLE_EQ(h.count(3), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
}

TEST(Histogram, OutOfRangeClampsToEdgeBins) {
  Histogram h(0.0, 1.0, 2);
  h.add(-5.0);
  h.add(2.0);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(1), 1.0);
}

TEST(Histogram, UpperEdgeGoesToLastBin) {
  Histogram h(0.0, 1.0, 4);
  h.add(1.0);  // hi is exclusive; clamps into the last bin
  EXPECT_DOUBLE_EQ(h.count(3), 1.0);
}

TEST(Histogram, WeightedAdd) {
  Histogram h(0.0, 10.0, 2);
  h.add(1.0, 0.25);
  h.add(6.0, 0.75);
  EXPECT_DOUBLE_EQ(h.count(0), 0.25);
  EXPECT_DOUBLE_EQ(h.count(1), 0.75);
  EXPECT_DOUBLE_EQ(h.total(), 1.0);
}

TEST(Histogram, NormalizedPeaksAtOne) {
  Histogram h(0.0, 1.0, 4);
  h.add(0.1);
  h.add(0.1);
  h.add(0.6);
  const std::vector<double> n = h.normalized_by(h.max_count());
  EXPECT_DOUBLE_EQ(n[0], 1.0);
  EXPECT_DOUBLE_EQ(n[2], 0.5);
}

TEST(Histogram, NormalizedByExternalMax) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.1);
  const std::vector<double> n = h.normalized_by(4.0);
  EXPECT_DOUBLE_EQ(n[0], 0.25);
}

TEST(Histogram, EmptyNormalizedStaysZero) {
  Histogram h(0.0, 1.0, 3);
  for (const double v : h.normalized_by(h.max_count())) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Histogram, NonFiniteSamplesAreDroppedNotBinned) {
  // NaN fails both range checks, and the float->size_t cast of a NaN index
  // is undefined; infinities would silently masquerade as edge-bin mass.
  Histogram h(0.0, 1.0, 4);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.dropped(), 3u);
  EXPECT_DOUBLE_EQ(h.total(), 0.0);
  for (std::size_t i = 0; i < h.bin_count(); ++i) {
    EXPECT_DOUBLE_EQ(h.count(i), 0.0) << i;
  }
}

TEST(Histogram, NonFiniteWeightIsDropped) {
  Histogram h(0.0, 1.0, 4);
  h.add(0.5, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.dropped(), 1u);
  EXPECT_DOUBLE_EQ(h.total(), 0.0);
  h.add(0.5, 2.0);  // finite samples still land normally
  EXPECT_DOUBLE_EQ(h.total(), 2.0);
}

TEST(Histogram, QuantileInterpolatesWithinBins) {
  Histogram h(0.0, 1.0, 4);  // bin width 0.25
  for (int i = 0; i < 4; ++i) h.add(0.1);   // 4 samples in [0, 0.25)
  for (int i = 0; i < 4; ++i) h.add(0.6);   // 4 samples in [0.5, 0.75)
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.25);  // all of bin 0 = half the mass
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 0.125);  // half of bin 0
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 0.625);  // half of bin 2
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));  // clamped
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));   // clamped
}

TEST(Histogram, QuantileOfEmptyHistogramIsRangeMinimum) {
  Histogram h(2.0, 5.0, 3);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
}

// ---- pinned boundary semantics (kept mass; q=0 -> first nonzero bin's lower
// ---- edge; q=1 -> hi), regression tests for the quantile() boundary fix ----

TEST(Histogram, QuantileZeroIsFirstNonzeroBinLowerEdge) {
  Histogram h(0.0, 1.0, 4);  // bin width 0.25
  h.add(0.6);                // bins 0 and 1 stay empty
  h.add(0.9);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.5);  // lower edge of bin 2, not lo
}

TEST(Histogram, QuantileOneIsRangeMaximumDespiteEmptyTailBins) {
  // Pre-fix the scan returned the upper edge of the last NONZERO bin (0.25
  // here), under-reporting the worst case whenever the tail bins are empty.
  Histogram h(0.0, 1.0, 4);
  h.add(0.1);
  h.add(0.2);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.0);
}

TEST(Histogram, QuantilesAreOverKeptMassOnly) {
  // Dropped (non-finite) samples carry no weight: the quantiles of {0.1 x4,
  // 0.6 x4} must not move when NaNs are interleaved.
  Histogram kept(0.0, 1.0, 4);
  Histogram noisy(0.0, 1.0, 4);
  for (int i = 0; i < 4; ++i) {
    kept.add(0.1);
    kept.add(0.6);
    noisy.add(0.1);
    noisy.add(std::numeric_limits<double>::quiet_NaN());
    noisy.add(0.6);
    noisy.add(std::numeric_limits<double>::infinity());
  }
  EXPECT_EQ(noisy.dropped(), 8u);
  for (const double q : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(noisy.quantile(q), kept.quantile(q)) << q;
  }
}

TEST(Histogram, ResetClearsCountsAndDropped) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.5);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.reset();
  EXPECT_DOUBLE_EQ(h.total(), 0.0);
  EXPECT_EQ(h.dropped(), 0u);
  EXPECT_DOUBLE_EQ(h.count(0), 0.0);
  EXPECT_DOUBLE_EQ(h.count(1), 0.0);
  h.add(0.1);  // layout survives the reset
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
}

}  // namespace
}  // namespace qosrm
