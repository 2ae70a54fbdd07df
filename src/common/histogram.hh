// Fixed-width histogram over [lo, hi) with optional weights.
//
// Used to reproduce paper Fig. 8 (distribution of QoS-violation magnitudes):
// counts can be normalized against the maximum bin across several histograms.
#ifndef QOSRM_COMMON_HISTOGRAM_HH
#define QOSRM_COMMON_HISTOGRAM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qosrm {

class Histogram {
 public:
  /// Creates `bins` equal-width bins covering [lo, hi). Finite values outside
  /// the range are clamped into the first/last bin so no mass is silently
  /// lost.
  Histogram(double lo, double hi, std::size_t bins);

  /// Adds one sample. A non-finite sample or weight is dropped (see
  /// dropped()): NaN fails both range checks and the float-to-index cast of
  /// a NaN is undefined, and an infinity masquerading as edge-bin mass would
  /// silently skew every quantile.
  void add(double x, double weight = 1.0) noexcept;

  /// Zeroes all counts (and the dropped counter), keeping the bin layout.
  void reset() noexcept;

  [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
  [[nodiscard]] double bin_lo(std::size_t i) const noexcept;
  [[nodiscard]] double bin_hi(std::size_t i) const noexcept;
  [[nodiscard]] double count(std::size_t i) const noexcept { return counts_[i]; }
  [[nodiscard]] double total() const noexcept { return total_; }
  /// Samples rejected by add() because the value or weight was not finite.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] double max_count() const noexcept;

  /// Value below which a fraction q (clamped to [0, 1]) of the recorded mass
  /// lies, linearly interpolated within the containing bin. Quantiles are
  /// taken over the KEPT mass only: samples rejected by add() (see dropped())
  /// carry no weight. Boundary semantics, pinned by tests: an empty histogram
  /// returns the range minimum; q=0 returns the lower edge of the first
  /// nonzero bin; q=1 returns the range maximum `hi` (even when the trailing
  /// bins are empty). Mass clamped into the edge bins is attributed to those
  /// bins, so tail quantiles saturate at the range edges.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Bin counts scaled by an externally supplied maximum (paper Fig. 8
  /// normalizes all three models against the global maximum); a
  /// non-positive maximum leaves every bin zero.
  [[nodiscard]] std::vector<double> normalized_by(double max_value) const;

 private:
  double lo_;
  double hi_;
  double bin_width_;
  std::vector<double> counts_;
  double total_ = 0.0;
  std::uint64_t dropped_ = 0;
};

}  // namespace qosrm

#endif  // QOSRM_COMMON_HISTOGRAM_HH
