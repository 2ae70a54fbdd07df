// Tail-quantile stability of Histogram under heavy-tailed input - the exact
// regime the dense-load service sweeps put it in: the p99 of Eq. 6 violation
// magnitudes drives knee detection (rmsim/report.hh), so a histogram-induced
// p99 error larger than one bin width would move knees between runs.
//
// Oracle: the exact quantile BRACKET (the two order statistics around the
// q-mass position). Histogram quantiles interpolate inside one fixed-width
// bin, so the reconstruction must land in the bracket widened by one bin
// width on each side.
#include "common/histogram.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"

namespace qosrm {
namespace {

/// Exact quantile bracket: any value in [lo, hi] has exactly a fraction q
/// of the sample mass below it, so a histogram reconstruction is correct
/// when it lands inside the bracket (widened by its bin resolution). A
/// single order statistic would be too strict an oracle: in a heavy tail
/// the two order statistics around p99 can be MANY bins apart, and every
/// value between them is an equally exact 99th percentile.
struct QuantileBracket {
  double lo = 0.0;
  double hi = 0.0;
};

QuantileBracket exact_quantile_bracket(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size());
  const auto idx = static_cast<std::size_t>(pos);
  QuantileBracket bracket;
  bracket.hi = values[std::min(idx, values.size() - 1)];
  bracket.lo = values[idx > 0 ? idx - 1 : 0];
  return bracket;
}

/// Pareto(x_m = scale, alpha) draw via inverse transform: the canonical
/// heavy-tailed distribution (alpha <= 2 has infinite variance).
double pareto(Rng& rng, double scale, double alpha) {
  // uniform() is in [0, 1); 1-u is in (0, 1], so the pow never divides by 0.
  return scale / std::pow(1.0 - rng.uniform(), 1.0 / alpha);
}

TEST(HistogramTails, P99MatchesExactOracleOnParetoData) {
  // Same layout the service engine uses (ServiceConfig defaults): 4096 bins
  // over [0, 2). Pareto tail mass beyond 2 is clamped into the last bin -
  // exactly what happens to outsized violation magnitudes in a service run.
  const double lo = 0.0, hi = 2.0;
  const std::size_t bins = 4096;
  const double bin_width = (hi - lo) / static_cast<double>(bins);

  Rng rng(20200817);
  for (int rep = 0; rep < 5; ++rep) {
    Histogram hist(lo, hi, bins);
    std::vector<double> values;
    values.reserve(20000);
    for (int i = 0; i < 20000; ++i) {
      // Shift to start at 0 like a violation magnitude; alpha = 1.5 gives an
      // infinite-variance tail, the worst realistic case for a fixed grid.
      const double v = pareto(rng, 0.05, 1.5) - 0.05;
      values.push_back(v);
      hist.add(v);
    }
    for (const double q : {0.50, 0.95, 0.99}) {
      SCOPED_TRACE(q);
      const QuantileBracket exact = exact_quantile_bracket(values, q);
      const double approx = hist.quantile(q);
      if (exact.lo >= hi) {
        // The oracle lies beyond the range: the histogram must saturate at
        // the top edge instead of inventing an in-range value.
        EXPECT_GE(approx, hi - bin_width);
        EXPECT_LE(approx, hi);
      } else {
        // In-range quantiles reconstruct into the exact bracket, to within
        // one bin width of resolution.
        EXPECT_GE(approx, exact.lo - bin_width) << "q=" << q;
        EXPECT_LE(approx, std::min(exact.hi, hi) + bin_width) << "q=" << q;
      }
    }
  }
}

TEST(HistogramTails, P99IsStableUnderSampleOrder) {
  // Quantiles must not depend on insertion order - the service engine feeds
  // violations in simulated-time order, which differs between admission
  // policies even on identical traces.
  Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) values.push_back(pareto(rng, 0.02, 1.2));

  Histogram forward(0.0, 2.0, 4096);
  for (const double v : values) forward.add(v);
  Histogram backward(0.0, 2.0, 4096);
  for (auto it = values.rbegin(); it != values.rend(); ++it) backward.add(*it);
  shuffle(values, rng);
  Histogram shuffled(0.0, 2.0, 4096);
  for (const double v : values) shuffled.add(v);

  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    EXPECT_EQ(forward.quantile(q), backward.quantile(q)) << q;
    EXPECT_EQ(forward.quantile(q), shuffled.quantile(q)) << q;
  }
}

TEST(HistogramTails, BinCountBoundsTheQuantileResolution) {
  // The documented contract (service.cc kHistBins): quantile resolution is
  // the bin width. The reconstruction error must stay within the bin width
  // at EVERY grid, from coarse to the service default.
  Rng rng(42);
  std::vector<double> values;
  for (int i = 0; i < 10000; ++i) values.push_back(pareto(rng, 0.1, 2.5) - 0.1);
  const QuantileBracket exact = exact_quantile_bracket(values, 0.99);
  ASSERT_LT(exact.hi, 2.0);  // stays in range for alpha = 2.5

  for (const std::size_t bins : {64u, 512u, 4096u}) {
    Histogram hist(0.0, 2.0, bins);
    for (const double v : values) hist.add(v);
    const double bin_width = 2.0 / static_cast<double>(bins);
    const double approx = hist.quantile(0.99);
    EXPECT_GE(approx, exact.lo - bin_width) << bins;
    EXPECT_LE(approx, exact.hi + bin_width) << bins;
  }
}

}  // namespace
}  // namespace qosrm
