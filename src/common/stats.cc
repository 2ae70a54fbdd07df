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
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n_total = na + nb;
  mean_ += delta * nb / n_total;
  m2_ += other.m2_ + delta * delta * na * nb / n_total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return n_ >= 2 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void WeightedStats::add(double x, double weight) noexcept {
  QOSRM_DCHECK(weight >= 0.0);
  if (weight == 0.0) return;
  ++n_;
  w_ += weight;
  wx_ += weight * x;
  wxx_ += weight * x * x;
}

void WeightedStats::merge(const WeightedStats& other) noexcept {
  n_ += other.n_;
  w_ += other.w_;
  wx_ += other.wx_;
  wxx_ += other.wxx_;
}

double WeightedStats::variance() const noexcept {
  if (w_ <= 0.0) return 0.0;
  const double m = wx_ / w_;
  return std::max(0.0, wxx_ / w_ - m * m);
}

double WeightedStats::stddev() const noexcept { return std::sqrt(variance()); }

}  // namespace qosrm
