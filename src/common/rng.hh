// Deterministic pseudo-random number generation.
//
// All stochastic components of the library (trace synthesis, workload
// generation) draw from Xoshiro256** seeded through SplitMix64, so every
// experiment is reproducible from a single 64-bit seed. The generator
// satisfies the C++ UniformRandomBitGenerator requirements and can be used
// with <random> distributions, but the members below cover all needs of the
// library without libstdc++-version-dependent distribution behaviour.
#ifndef QOSRM_COMMON_RNG_HH
#define QOSRM_COMMON_RNG_HH

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace qosrm {

/// SplitMix64 step; used to expand a single seed into a full state vector.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Xoshiro256** 1.0 (Blackman & Vigna) - fast, high-quality, 256-bit state.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept { reseed(seed); }

  /// Re-initializes the state from a single 64-bit seed.
  void reseed(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }

  /// Next raw 64-bit output.
  std::uint64_t next() noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection method).
  [[nodiscard]] std::uint64_t uniform_u64(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Bernoulli draw with probability p of returning true.
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// One GeometricDraw(p) draw.
  [[nodiscard]] std::uint64_t geometric(double p) noexcept;

  /// One WeightedDraw(weights) draw.
  [[nodiscard]] std::size_t weighted_choice(std::span<const double> weights) noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Geometric draws with one success probability p in (0, 1]: the number of
/// failures before the first success, mean (1-p)/p, by inverse CDF
/// floor(log1p(-u) / log1p(-p)) with log1p(-p) computed once. With p = 1
/// every draw is 0 and consumes no random number.
class GeometricDraw {
 public:
  explicit GeometricDraw(double p) noexcept;

  [[nodiscard]] std::uint64_t operator()(Rng& rng) const noexcept;

 private:
  bool certain_;
  double log1p_neg_p_;
};

/// Index draws in [0, weights.size()) proportional to `weights`, whose total
/// is summed once. Requires at least one strictly positive weight; `weights`
/// must outlive the object.
class WeightedDraw {
 public:
  explicit WeightedDraw(std::span<const double> weights) noexcept;

  [[nodiscard]] std::size_t operator()(Rng& rng) const noexcept;

 private:
  std::span<const double> weights_;
  double total_;
};

/// Fisher-Yates shuffle using Rng (deterministic across platforms, unlike
/// std::shuffle whose output may vary between standard library versions).
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  if (v.empty()) return;
  for (std::size_t i = v.size() - 1; i > 0; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.uniform_u64(i + 1));
    using std::swap;
    swap(v[i], v[j]);
  }
}

}  // namespace qosrm

#endif  // QOSRM_COMMON_RNG_HH
