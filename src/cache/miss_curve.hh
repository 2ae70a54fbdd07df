// Miss counts as a function of the LLC way allocation, derived exactly from
// a recency annotation.
#ifndef QOSRM_CACHE_MISS_CURVE_HH
#define QOSRM_CACHE_MISS_CURVE_HH

#include <cstdint>
#include <span>
#include <vector>

namespace qosrm::cache {

/// misses(w) for w in [1, max_ways]; monotonically non-increasing in w for
/// LRU (stack-inclusion property).
class MissCurve {
 public:
  explicit MissCurve(std::vector<double> misses_by_ways);

  /// Builds the exact curve from a recency annotation: misses(w) = #accesses
  /// with recency >= w (kRecencyMiss counts for every w).
  [[nodiscard]] static MissCurve from_recency(std::span<const std::uint8_t> recency,
                                              int max_ways);

  /// Miss count at allocation w (clamped to [1, max_ways]).
  [[nodiscard]] double misses(int w) const noexcept;

  [[nodiscard]] int max_ways() const noexcept { return static_cast<int>(m_.size()); }

 private:
  std::vector<double> m_;  // m_[w-1] = misses at w ways
};

}  // namespace qosrm::cache

#endif  // QOSRM_CACHE_MISS_CURVE_HH
