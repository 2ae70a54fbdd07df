#include "common/histogram.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"

namespace qosrm {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bin_width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0.0) {
  QOSRM_CHECK(hi > lo);
  QOSRM_CHECK(bins > 0);
}

void Histogram::add(double x, double weight) noexcept {
  if (!std::isfinite(x) || !std::isfinite(weight)) {
    ++dropped_;
    return;
  }
  std::size_t idx;
  if (x < lo_) {
    idx = 0;
  } else if (x >= hi_) {
    idx = counts_.size() - 1;
  } else {
    idx = static_cast<std::size_t>((x - lo_) / bin_width_);
    idx = std::min(idx, counts_.size() - 1);
  }
  counts_[idx] += weight;
  total_ += weight;
}

void Histogram::reset() noexcept {
  std::fill(counts_.begin(), counts_.end(), 0.0);
  total_ = 0.0;
  dropped_ = 0;
}

double Histogram::quantile(double q) const noexcept {
  if (total_ <= 0.0) return lo_;
  const double qc = std::clamp(q, 0.0, 1.0);
  // Pin the upper boundary explicitly: with exact sums the scan below would
  // return the upper edge of the last NONZERO bin, which for a histogram
  // with empty tail bins is below hi - and with accumulated floating-point
  // error the scan could fall through entirely.
  if (qc >= 1.0) return hi_;
  const double target = qc * total_;
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double c = counts_[i];
    if (c > 0.0 && cum + c >= target) {
      return bin_lo(i) + (target - cum) / c * bin_width_;
    }
    cum += c;
  }
  return hi_;
}

double Histogram::bin_lo(std::size_t i) const noexcept {
  return lo_ + bin_width_ * static_cast<double>(i);
}

double Histogram::bin_hi(std::size_t i) const noexcept {
  return lo_ + bin_width_ * static_cast<double>(i + 1);
}

double Histogram::max_count() const noexcept {
  double m = 0.0;
  for (const double c : counts_) m = std::max(m, c);
  return m;
}

std::vector<double> Histogram::normalized_by(double max_value) const {
  std::vector<double> out(counts_.size(), 0.0);
  if (max_value <= 0.0) return out;
  for (std::size_t i = 0; i < counts_.size(); ++i) out[i] = counts_[i] / max_value;
  return out;
}

}  // namespace qosrm
