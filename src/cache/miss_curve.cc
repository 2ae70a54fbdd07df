#include "cache/miss_curve.hh"

#include <algorithm>

#include "cache/access.hh"
#include "common/check.hh"

namespace qosrm::cache {

MissCurve::MissCurve(std::vector<double> misses_by_ways) : m_(std::move(misses_by_ways)) {
  QOSRM_CHECK(!m_.empty());
}

MissCurve MissCurve::from_recency(std::span<const std::uint8_t> recency, int max_ways) {
  QOSRM_CHECK(max_ways > 0);
  // hits_at[r] = number of accesses hitting recency position r.
  std::vector<double> hits_at(static_cast<std::size_t>(max_ways), 0.0);
  double cold = 0.0;
  for (const std::uint8_t r : recency) {
    if (r == kRecencyMiss || static_cast<int>(r) >= max_ways) {
      cold += 1.0;
    } else {
      hits_at[r] += 1.0;
    }
  }
  // misses(w) = cold misses + hits at recency positions >= w; accumulate the
  // suffix sum from the largest allocation downwards.
  std::vector<double> m(hits_at.size(), 0.0);
  double tail = cold;
  for (std::size_t w = hits_at.size(); w >= 1; --w) {
    m[w - 1] = tail;
    tail += hits_at[w - 1];
  }
  return MissCurve(std::move(m));
}

double MissCurve::misses(int w) const noexcept {
  QOSRM_DCHECK(!m_.empty());
  const int clamped = std::clamp(w, 1, max_ways());
  return m_[static_cast<std::size_t>(clamped - 1)];
}

}  // namespace qosrm::cache
