#include "common/rng.hh"

#include <cmath>

#include "common/check.hh"

namespace qosrm {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

void Rng::reseed(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // A state of all zeros is invalid for xoshiro; splitmix64 cannot produce
  // four zero outputs in a row, but keep the guard explicit.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_u64(std::uint64_t n) noexcept {
  QOSRM_DCHECK(n > 0);
  // Lemire-style rejection to avoid modulo bias: a draw below the threshold
  // 2^64 mod n is rejected. The threshold is below n, so only a draw r < n
  // pays for computing it.
  for (;;) {
    const std::uint64_t r = next();
    if (r >= n || r >= (0 - n) % n) return r % n;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  QOSRM_DCHECK(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_u64(span));
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

std::uint64_t Rng::geometric(double p) noexcept { return GeometricDraw(p)(*this); }

std::size_t Rng::weighted_choice(std::span<const double> weights) noexcept {
  return WeightedDraw(weights)(*this);
}

GeometricDraw::GeometricDraw(double p) noexcept
    : certain_(p >= 1.0), log1p_neg_p_(certain_ ? 0.0 : std::log1p(-p)) {
  QOSRM_DCHECK(p > 0.0 && p <= 1.0);
}

std::uint64_t GeometricDraw::operator()(Rng& rng) const noexcept {
  if (certain_) return 0;
  const double u = rng.uniform();
  // Inverse CDF; u in [0,1) keeps log argument strictly positive.
  return static_cast<std::uint64_t>(std::floor(std::log1p(-u) / log1p_neg_p_));
}

WeightedDraw::WeightedDraw(std::span<const double> weights) noexcept
    : weights_(weights), total_(0.0) {
  for (const double w : weights_) {
    QOSRM_DCHECK(w >= 0.0);
    total_ += w;
  }
  QOSRM_DCHECK(total_ > 0.0);
}

std::size_t WeightedDraw::operator()(Rng& rng) const noexcept {
  double r = rng.uniform() * total_;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    r -= weights_[i];
    if (r < 0.0) return i;
  }
  // Floating-point slack: fall back to the last positive weight.
  for (std::size_t i = weights_.size(); i-- > 0;) {
    if (weights_[i] > 0.0) return i;
  }
  return weights_.size() - 1;
}

}  // namespace qosrm
