#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"

namespace qosrm {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  mean_ += (x - mean_) / static_cast<double>(n_);
}

void WeightedStats::add(double x, double weight) noexcept {
  QOSRM_DCHECK(weight >= 0.0);
  if (weight == 0.0) return;
  ++n_;
  w_ += weight;
  wx_ += weight * x;
  wxx_ += weight * x * x;
}

double WeightedStats::variance() const noexcept {
  if (w_ <= 0.0) return 0.0;
  const double m = wx_ / w_;
  return std::max(0.0, wxx_ / w_ - m * m);
}

double WeightedStats::stddev() const noexcept { return std::sqrt(variance()); }

}  // namespace qosrm
