// Streaming statistics accumulators.
//
// RunningStats   - online mean/min/max/sum for unweighted samples.
// WeightedStats  - weighted mean/variance (frequency weights, e.g. SimPoint
//                  phase weights or selection probabilities).
#ifndef QOSRM_COMMON_STATS_HH
#define QOSRM_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>

namespace qosrm {

/// Single-pass moments; the mean is updated incrementally (Welford's
/// recurrence), which stays accurate over long streams.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Weighted first and second moments with non-negative frequency weights.
class WeightedStats {
 public:
  void add(double x, double weight) noexcept;

  [[nodiscard]] double total_weight() const noexcept { return w_; }
  [[nodiscard]] double mean() const noexcept { return w_ > 0.0 ? wx_ / w_ : 0.0; }
  /// Weighted population variance E[x^2] - E[x]^2, clamped at zero.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }

 private:
  std::uint64_t n_ = 0;
  double w_ = 0.0;
  double wx_ = 0.0;
  double wxx_ = 0.0;
};

}  // namespace qosrm

#endif  // QOSRM_COMMON_STATS_HH
